#include "stats/gamma.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace sigsub {
namespace stats {
namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;
constexpr double kTiny = 1e-300;

// Power-series representation of P(a, x); converges quickly for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Modified Lentz continued fraction for Q(a, x); converges for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - LogGamma(a)) * h;
}

}  // namespace

double LogGamma(double x) {
  SIGSUB_DCHECK(x > 0.0);
  // std::lgamma writes the process-global `signgam` on glibc, which is a
  // data race when p-values are computed concurrently (e.g. substrings
  // queries scoring their classes on the engine's pool workers). The
  // reentrant variant returns the sign through a local instead.
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  // Non-glibc fallback without the _r variant; signgam races are
  // tolerated there because we never read it.
  // sigsub-lint: allow(unsafe-call): signgam is written but never read here
  return std::lgamma(x);
#endif
}

double RegularizedGammaP(double a, double x) {
  SIGSUB_DCHECK(a > 0.0);
  SIGSUB_DCHECK(x >= 0.0);
  if (x <= 0.0) return 0.0;
  if (std::isinf(x)) return 1.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  SIGSUB_DCHECK(a > 0.0);
  SIGSUB_DCHECK(x >= 0.0);
  if (x <= 0.0) return 1.0;
  if (std::isinf(x)) return 0.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double InverseRegularizedGammaP(double a, double p) {
  SIGSUB_DCHECK(a > 0.0);
  SIGSUB_DCHECK(p >= 0.0 && p < 1.0);
  if (p <= 0.0) return 0.0;

  // Wilson-Hilferty approximation as the starting point.
  // For Z ~ N(0,1): x ~= a * (1 - 1/(9a) + z*sqrt(1/(9a)))^3.
  double z;
  {
    // Rational approximation of the standard normal quantile
    // (Beasley-Springer-Moro flavor, adequate as a seed).
    double t;
    double q = p < 0.5 ? p : 1.0 - p;
    t = std::sqrt(-2.0 * std::log(q));
    z = t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t);
    if (p < 0.5) z = -z;
  }
  double x;
  if (a > 0.5) {
    double g = 1.0 / (9.0 * a);
    double cube = 1.0 - g + z * std::sqrt(g);
    x = a * cube * cube * cube;
    if (x <= 0.0) x = 0.5 * a;
  } else {
    // Small-shape seed from the leading series term: P(a,x) ~ x^a / Γ(a+1).
    x = std::pow(p * std::exp(LogGamma(a + 1.0)), 1.0 / a);
  }

  // Halley refinement on f(x) = P(a, x) - p.
  double lgamma_a = LogGamma(a);
  for (int i = 0; i < 60; ++i) {
    if (x <= 0.0) x = kTiny;
    double f = RegularizedGammaP(a, x) - p;
    double log_pdf = -x + (a - 1.0) * std::log(x) - lgamma_a;
    double pdf = std::exp(log_pdf);
    if (pdf <= 0.0) break;
    double step = f / pdf;
    // Halley correction term: f'' / (2 f') = ((a-1)/x - 1) / 2.
    double halley = step * ((a - 1.0) / x - 1.0) / 2.0;
    double denom = 1.0 - std::fmin(1.0, std::fmax(-1.0, halley));
    double dx = step / denom;
    double next = x - dx;
    if (next <= 0.0) next = x / 2.0;
    if (std::fabs(next - x) < 1e-12 * (std::fabs(next) + 1e-12)) {
      x = next;
      break;
    }
    x = next;
  }
  return x;
}

}  // namespace stats
}  // namespace sigsub
