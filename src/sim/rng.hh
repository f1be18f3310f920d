/**
 * @file
 * Deterministic pseudo-random number generation and the samplers used
 * throughout DTSim.
 *
 * The generator is a 64-bit SplitMix-seeded xoshiro256** instance; it is
 * small, fast, and fully reproducible from a single 64-bit seed, which
 * keeps every experiment in the paper reproduction deterministic.
 */

#ifndef DTSIM_SIM_RNG_HH
#define DTSIM_SIM_RNG_HH

#include <cstdint>
#include <vector>

namespace dtsim {

/**
 * Deterministic 64-bit PRNG (xoshiro256**) with convenience samplers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; the same seed replays the stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /**
     * Log-normally distributed value parameterized by the desired
     * mean and sigma (shape) of the resulting distribution.
     */
    double logNormalMean(double mean, double sigma);

    /** Standard normal deviate (Box-Muller). */
    double gaussian();

  private:
    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

/**
 * Generalized (Bradford-)Zipf sampler over ranks 1..n with exponent
 * alpha: P(rank i) proportional to 1 / i^alpha.
 *
 * alpha = 0 degenerates to the uniform distribution; alpha = 1 is the
 * classic Zipf law. A full CDF table is precomputed so sampling is
 * exact: a draw is the first index whose CDF reaches a uniform u. A
 * guide table of n equal-width u buckets narrows the binary search to
 * the few indices of u's bucket, so a draw touches two or three cache
 * lines instead of log2(n) scattered ones.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of items (ranks 1..n); must be >= 1.
     * @param alpha Zipf exponent, >= 0.
     */
    ZipfSampler(std::size_t n, double alpha);

    /** Sample a 0-based item index in [0, n); one uniform() draw. */
    std::size_t sample(Rng& rng) const { return indexFor(rng.uniform()); }

    /** The first 0-based index whose CDF is >= u, for u in [0, 1). */
    std::size_t indexFor(double u) const;

    /** Probability mass of 0-based item i. */
    double pmf(std::size_t i) const;

    /** Accumulated probability of the top-k most popular items. */
    double topMass(std::size_t k) const;

    std::size_t size() const { return cdf_.size(); }
    double alpha() const { return alpha_; }

  private:
    std::vector<double> cdf_;

    /**
     * guide_[k] = first index whose CDF is >= k/n, for k in [0, n];
     * u in bucket k = floor(u*n) then lies in [guide_[k],
     * guide_[k+1]], up to rounding at the bucket edges.
     */
    std::vector<std::uint32_t> guide_;
    double alpha_;
};

} // namespace dtsim

#endif // DTSIM_SIM_RNG_HH
