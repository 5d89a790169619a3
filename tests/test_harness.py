from nsverify.harness import criterion_spectral_infrastructure


def test_spectral_infrastructure_criterion_passes():
    result = criterion_spectral_infrastructure(count=4, n=16)
    assert result.passed, result.detail
    assert "nyquist=" in result.detail
