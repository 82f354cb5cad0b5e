// Deterministic pseudo-random utilities for workload generation and jitter.
//
// Rng wraps a splitmix64/xoshiro-style generator with convenience samplers.
// ZipfianGenerator implements the YCSB scrambled-zipfian distribution used
// to control contention via the skew factor theta (paper §VII-A2).
#ifndef GEOTP_COMMON_RANDOM_H_
#define GEOTP_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace geotp {

/// Deterministic 64-bit PRNG (xoshiro256**), seedable, copyable.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform in [0, 2^64).
  uint64_t NextU64();

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextU64(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Normal sample with the given mean/stddev (Box-Muller).
  double NextGaussian(double mean, double stddev);

  /// Exponential sample with the given mean.
  double NextExponential(double mean);

  /// Forks an independent stream (useful for per-terminal generators).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Samples an integer key in [lo, hi) with probability density proportional
/// to (k + 1)^-theta — i.e. a zipfian anchored at key 0 of the GLOBAL key
/// space, restricted to the sub-range. Used to sample a range-partitioned
/// table's global zipf conditioned on one partition: the head partition
/// gets the hot keys, remote partitions are nearly uniform (this is the
/// "hot records are intra-region" access pattern the paper's scheduling
/// targets, §I). Continuous-approximation inverse-CDF sampling, O(1).
uint64_t BoundedZipfSample(uint64_t lo, uint64_t hi, double theta, Rng& rng);

/// BoundedZipfSample over a fixed (lo, hi, theta): the CDF's endpoint
/// powers are computed once here instead of on every draw, so a sample
/// costs one pow(). Draws are bit-identical to BoundedZipfSample's.
class BoundedZipf {
 public:
  BoundedZipf(uint64_t lo, uint64_t hi, double theta);
  uint64_t Sample(Rng& rng) const;

 private:
  enum class Shape { kPoint, kUniform, kLog, kPower };
  uint64_t lo_;
  uint64_t hi_;
  Shape shape_;
  double a_ = 0.0;         ///< lo + 1
  double span_ = 0.0;      ///< kUniform: b - a; kLog: b / a; kPower: fb - fa
  double fa_ = 0.0;        ///< kPower: a^(1 - theta)
  double exponent_ = 0.0;  ///< kPower: 1 / (1 - theta)
};

/// Per-thread generator for code that runs on loopback-runtime threads
/// (actor executors, flusher threads) and has no actor-owned Rng to draw
/// from. Each thread gets an independent stream the first time it asks:
/// deterministic per thread-creation order within a process, but NOT
/// reproducible across runs — real-thread scheduling already is not.
/// Simulated (single-threaded, seeded) code paths must keep using their
/// explicit Rng members; this exists so nothing multi-threaded is ever
/// tempted to share one of those (a TSan data race).
Rng& ThreadLocalRng();

/// Zipfian distribution over [0, n), YCSB-style, with optional scrambling so
/// hot keys are spread across the key space rather than clustered at 0.
///
/// theta is the skew factor: 0 = uniform-ish, 0.99 = classic YCSB, the paper
/// uses 0.3 / 0.9 / 1.5 for low / medium / high contention.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta, bool scramble = true);

  /// Samples a key in [0, n).
  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  bool scramble_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

}  // namespace geotp

#endif  // GEOTP_COMMON_RANDOM_H_
