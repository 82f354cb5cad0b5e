#include "common/random.h"

#include <atomic>

#include <cmath>

namespace geotp {

Rng& ThreadLocalRng() {
  // Distinct seeds per thread: a process-wide counter stirred through the
  // generator's splitmix64 seeding. No locks after first use per thread.
  static std::atomic<uint64_t> next_stream{0x51AB5EEDULL};
  thread_local Rng rng(next_stream.fetch_add(0x9E3779B97F4A7C15ULL));
  return rng;
}

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Stateless 64-bit hash used for zipfian scrambling.
uint64_t FnvHash64(uint64_t v) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (int i = 0; i < 8; ++i) {
    hash ^= (v >> (i * 8)) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(x);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextU64(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  NextU64(static_cast<uint64_t>(hi - lo + 1)));
}

double Rng::NextGaussian(double mean, double stddev) {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return mean + stddev * cached_gaussian_;
  }
  double u1, u2;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double z0 = mag * std::cos(2.0 * M_PI * u2);
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mean + stddev * z0;
}

double Rng::NextExponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -mean * std::log(u);
}

Rng Rng::Fork() { return Rng(NextU64()); }

uint64_t BoundedZipfSample(uint64_t lo, uint64_t hi, double theta, Rng& rng) {
  return BoundedZipf(lo, hi, theta).Sample(rng);
}

BoundedZipf::BoundedZipf(uint64_t lo, uint64_t hi, double theta)
    : lo_(lo), hi_(hi) {
  if (hi <= lo + 1) {
    shape_ = Shape::kPoint;
    return;
  }
  // Integrate the density x^-theta over [a, b] = [lo + 1, hi + 1) and
  // invert the CDF at a uniform sample.
  a_ = static_cast<double>(lo + 1);
  const double b = static_cast<double>(hi + 1);
  if (theta < 1e-9) {
    shape_ = Shape::kUniform;
    span_ = b - a_;
  } else if (std::abs(theta - 1.0) < 1e-9) {
    shape_ = Shape::kLog;
    span_ = b / a_;
  } else {
    shape_ = Shape::kPower;
    const double one_minus = 1.0 - theta;
    fa_ = std::pow(a_, one_minus);
    span_ = std::pow(b, one_minus) - fa_;
    exponent_ = 1.0 / one_minus;
  }
}

uint64_t BoundedZipf::Sample(Rng& rng) const {
  if (shape_ == Shape::kPoint) return lo_;
  const double u = rng.NextDouble();
  double x;
  switch (shape_) {
    case Shape::kUniform:
      x = a_ + u * span_;
      break;
    case Shape::kLog:
      x = a_ * std::pow(span_, u);
      break;
    default:
      x = std::pow(fa_ + u * span_, exponent_);
      break;
  }
  auto key = static_cast<uint64_t>(x) - 1;  // undo the +1 shift
  if (key < lo_) key = lo_;
  if (key >= hi_) key = hi_ - 1;
  return key;
}

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta, bool scramble)
    : n_(n), theta_(theta), scramble_(scramble) {
  if (n_ == 0) n_ = 1;
  zetan_ = Zeta(n_, theta_);
  zeta2theta_ = Zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
}

double ZipfianGenerator::Zeta(uint64_t n, double theta) {
  // Exact for small n; for large n use the standard Euler-Maclaurin style
  // approximation so constructing a generator over millions of keys is O(1).
  constexpr uint64_t kExactLimit = 10000;
  double sum = 0.0;
  const uint64_t exact_n = n < kExactLimit ? n : kExactLimit;
  for (uint64_t i = 1; i <= exact_n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  if (n > kExactLimit) {
    if (theta == 1.0) {
      sum += std::log(static_cast<double>(n) / kExactLimit);
    } else {
      sum += (std::pow(static_cast<double>(n), 1.0 - theta) -
              std::pow(static_cast<double>(kExactLimit), 1.0 - theta)) /
             (1.0 - theta);
    }
  }
  return sum;
}

uint64_t ZipfianGenerator::Next(Rng& rng) {
  if (theta_ <= 1e-9) {
    uint64_t v = rng.NextU64(n_);
    return scramble_ ? FnvHash64(v) % n_ : v;
  }
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  uint64_t v;
  if (uz < 1.0) {
    v = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    v = 1;
  } else {
    v = static_cast<uint64_t>(static_cast<double>(n_) *
                              std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (v >= n_) v = n_ - 1;
  }
  return scramble_ ? FnvHash64(v) % n_ : v;
}

}  // namespace geotp
