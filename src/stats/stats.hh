/**
 * @file
 * A small statistics package in the spirit of gem5's stats.
 *
 * Stats register themselves with a StatGroup; groups can be nested and
 * dumped as aligned text or CSV. Only the stat kinds the simulator
 * needs are provided: scalar counters, averaged distributions, and
 * fixed-bucket histograms.
 */

#ifndef DTSIM_STATS_STATS_HH
#define DTSIM_STATS_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dtsim {
namespace stats {

class StatGroup;

/** Base class for all statistics; carries name and description. */
class StatBase
{
  public:
    StatBase(StatGroup& parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase&) = delete;
    StatBase& operator=(const StatBase&) = delete;

    const std::string& name() const { return name_; }
    const std::string& desc() const { return desc_; }

    /** Reset the stat to its initial state. */
    virtual void reset() = 0;

    /** Print "name value # desc" lines under the given prefix. */
    virtual void print(std::ostream& os,
                       const std::string& prefix) const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A monotonically updated scalar (counter or gauge). */
class Scalar : public StatBase
{
  public:
    Scalar(StatGroup& parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    Scalar& operator++() { ++value_; return *this; }
    Scalar& operator+=(double v) { value_ += v; return *this; }
    Scalar& operator-=(double v) { value_ -= v; return *this; }
    void set(double v) { value_ = v; }

    double value() const { return value_; }

    void reset() override { value_ = 0.0; }
    void print(std::ostream& os,
               const std::string& prefix) const override;

  private:
    double value_ = 0.0;
};

/**
 * Running distribution: tracks count, sum, min, max, and variance
 * (Welford's algorithm) of sampled values.
 */
class Distribution : public StatBase
{
  public:
    Distribution(StatGroup& parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    /** Record one sample. */
    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }
    double variance() const;
    double stddev() const;

    void reset() override;
    void print(std::ostream& os,
               const std::string& prefix) const override;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    double meanAcc_ = 0.0;
    double m2_ = 0.0;
};

/** Fixed-width-bucket histogram over [lo, hi) with under/overflow. */
class Histogram : public StatBase
{
  public:
    Histogram(StatGroup& parent, std::string name, std::string desc,
              double lo, double hi, std::size_t buckets);

    void sample(double v, std::uint64_t weight = 1);

    std::uint64_t count() const { return count_; }
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    void reset() override;
    void print(std::ostream& os,
               const std::string& prefix) const override;

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A named collection of stats and child groups. The root group of a
 * simulation owns the full hierarchy for reporting.
 */
class StatGroup
{
  public:
    /** Construct a root group. */
    explicit StatGroup(std::string name);

    /** Construct a child group attached to `parent`. */
    StatGroup(StatGroup& parent, std::string name);

    StatGroup(const StatGroup&) = delete;
    StatGroup& operator=(const StatGroup&) = delete;

    const std::string& name() const { return name_; }

    /** Reset every stat in this group and all children. */
    void resetAll();

    /** Dump "prefix.name value # desc" lines for the whole subtree. */
    void print(std::ostream& os, const std::string& prefix = "") const;

    /**
     * Construct a stat of type T owned by this group. Useful when a
     * stat tree is assembled dynamically (e.g. a snapshot report built
     * per disk): the group keeps the object alive until it is
     * destroyed, so callers need no separate storage.
     */
    template <typename T, typename... Args>
    T&
    make(Args&&... args)
    {
        auto stat = std::make_unique<T>(*this,
                                        std::forward<Args>(args)...);
        T& ref = *stat;
        owned_.push_back(std::move(stat));
        return ref;
    }

    /** Construct a child group owned by this group. */
    StatGroup& makeGroup(std::string name);

  private:
    friend class StatBase;

    void addStat(StatBase* s) { stats_.push_back(s); }
    void addChild(StatGroup* g) { children_.push_back(g); }

    std::string name_;
    std::vector<StatBase*> stats_;
    std::vector<StatGroup*> children_;
    std::vector<std::unique_ptr<StatBase>> owned_;
    std::vector<std::unique_ptr<StatGroup>> ownedChildren_;
};

} // namespace stats
} // namespace dtsim

#endif // DTSIM_STATS_STATS_HH
