"""Golden values of every Monte Carlo estimator, pinned bit for bit.

Recorded as float.hex when prob_fourier_mc and far_region_integral still
ran their own block loops, before they became integrands of
integrate_mc. Estimates depend only on (seed, samples), so any change to
the sampling, the seeding, the block order or the moment accounting
moves a bit and fails here. The last entry, `asm_central_m10`, was
recorded later, on an instance with 602 column types. It and the three
m = 8 entries (`pfm_zero_m8`, `far_m8_*`, 94 types) pin the
angle-addition path of the transform kernel; the other instances, at
m <= 4 with at most 16 types, run its libm path. No entry moved when that
path came to tabulate the angles of all 2^m subsets instead of those of
the types and their prefixes: each type's angle is still the
left-to-right sum of its coordinates, each cosine is still `_cos_turns`
of that angle alone, and the sign and the row sum are taken as before,
so every factor and every sum keeps its bits. The entries were
re-recorded when the kernel and the character of prob_fourier_mc took
their cosines from the tangent of the half angle instead of libm's cos
(each moved by at most 3.9e-15 relative); cancellation_check still uses
libm and its entries did not move. The three m = 8 entries were re-recorded again when the kernel
came to take the angle-addition path whenever its half tables hold
fewer values per point than there are types (at most 1.5e-14 relative).
The four angle-addition entries were re-recorded when that path came to
take one log per group of LOG_GROUP equal-count types, of the product of
their factors, instead of one log per type: `pfm_zero_m8` moved by
7.8e-15 relative (its stderr by 7.2e-15), `far_m8_None` by 1.6e-15,
`asm_central_m10` by 1.7e-16, and `far_m8_1` kept every bit.
"""

import disclab as dl

S1 = dl.build_pmf(1)

# name: (value hex, stderr hex, samples[, log_mean hex])
GOLDEN = {
    'pfm_zero_m4': ('0x1.beef74c4de2e0p-20', '0x1.beb0fa41ddb3cp-20', 3000),
    'pfm_zero_m8': ('-0x1.c350831c0c557p-67', '0x1.e3e4258bae77cp-67', 1500),
    'pfm_lambda_m2': ('0x1.7f5af62c8ba13p-6', '0x1.3ff6b2f37b6c0p-9', 2000),
    'pfm_adaptive': ('0x1.00e30f8fa9cbap-2', '0x1.df7e123917819p-11', 131072),
    'far_m4_None': ('0x1.a03cd2f211b98p-27', '0x1.049e679b8fa7ep-27', 3000, '-0x1.23a98de41d2d4p+4'),
    'far_m4_1': ('0x1.33a130726a3fdp-37', '0x1.0a3e751719ba8p-37', 3000, '-0x1.976753eb2d8f0p+4'),
    'far_m8_None': ('0x1.d237101270d66p-29', '0x1.c23cbc1f4dd67p-29', 3000, '-0x1.38075df4fc054p+4'),
    'far_m8_1': ('0x1.17e1f7b81069cp-56', '0x1.17d978418d6b4p-56', 3000, '-0x1.35d0ff1369509p+5'),
    'far_m4_two_blocks': ('0x1.0ecf5a6a862c0p-32', '0x1.d4d08dae35ce3p-34', 70000, '-0x1.61fdd419a9846p+4'),
    'asm_central': ('0x1.9e5736d23351bp-19', '0x1.31fe30e5b6588p-24', 2000),
    'asm_near': ('0x1.edad69a0ed1a7p-25', '0x1.11be4d1f0f75cp-30', 2000),
    'asm_far': ('0x1.35f78f42940f8p-23', '0x1.286ea337d863cp-23', 2000, '-0x1.f808fbdd87f12p+3'),
    'asm_witness': ('0x1.726ca763bb9dap-21', '0x1.7a236dbe72232p-28', 2000),
    'even_m4': ('0x1.3abffeff610ffp-19', '0x1.0f60ea56fa2a0p-19', 3000),
    'cancel_re': ('0x1.fa99e34cba333p-7', '0x1.a70c780422994p-7', 3000),
    'cancel_im': ('0x1.23fb81d4b8d76p-8', '0x1.ab1ad602e31d9p-7', 3000),
    'asm_central_m10': ('0x1.46a5d1eeb0f26p-56', '0x1.61c82a1e9ae55p-61', 2000),
}


def _pin(est):
    return (float(est.value).hex(), float(est.stderr).hex(), est.samples)


def _far_pin(rep):
    return _pin(rep.estimate) + (float(rep.log_mean).hex(),)


def test_estimators_match_golden_values_bitwise():
    A2 = dl.sample_bernoulli(2, 10, 0.5, 3)
    A4 = dl.sample_bernoulli(4, 200, 0.5, 7)
    A8 = dl.sample_bernoulli(8, 120, 0.5, 2)
    got = {
        'pfm_zero_m4': _pin(dl.prob_fourier_mc(A4, S1, [0] * 4, 3000, 5)),
        'pfm_zero_m8': _pin(dl.prob_fourier_mc(A8, S1, [0] * 8, 1500, 6)),
        'pfm_lambda_m2': _pin(dl.prob_fourier_mc(A2, S1, [1, 1], 2000, 209)),
        # stops at the second checkpoint (two 65536-sample blocks)
        'pfm_adaptive': _pin(dl.prob_fourier_mc(
            dl.IncidenceMatrix([[1, 1]]), S1, [0], 10 ** 6, 9, stderr_target=1.2e-3)),
    }
    for key, A in (("m4", A4), ("m8", A8)):
        for inc in (None, 1):
            got[f"far_{key}_{inc}"] = _far_pin(
                dl.far_region_integral(A, 0.1, 3000, 4, include_rhat_delta=inc))
    # two 65536-sample blocks: the log-sum-exp for log_mean spans both
    got['far_m4_two_blocks'] = _far_pin(
        dl.far_region_integral(A4, 0.1, 70000, 12, include_rhat_delta=1))
    asm = dl.three_region_assembly(A4, S1, 2000, 6)
    got.update(asm_central=_pin(asm.central), asm_near=_pin(asm.near),
               asm_far=_far_pin(asm.far), asm_witness=_pin(asm.witness))
    got['even_m4'] = _pin(dl.prob_even_variant(A4, 3000, 8))
    re, im = dl.cancellation_check([1, 0], 3000, 10)
    got.update(cancel_re=_pin(re), cancel_im=_pin(im))
    A10 = dl.sample_bernoulli(10, 922, 0.5, 5)
    got['asm_central_m10'] = _pin(dl.three_region_assembly(A10, S1, 2000, 6).central)
    assert got == GOLDEN
