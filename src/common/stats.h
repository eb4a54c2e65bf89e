/**
 * @file
 * Statistics package: registered counters, bucketed histograms and
 * quantile sketches with merge, epoch-delta and dump facilities, in
 * the spirit of gem5's stats but minimal. Counter names are declared
 * once in common/counters.def and checked at compile time; histograms
 * and sketches auto-register by name on first use, so call sites stay
 * one-liners:
 *
 *   stats.add("transfers", 1);      // "transfers" must be in the .def
 *   stats.hist("refs_per_line").record(nrefs);
 *   stats.sketch("frame_bits").record(bits);
 */

#ifndef CABLE_COMMON_STATS_H
#define CABLE_COMMON_STATS_H

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/sketch.h"

namespace cable
{

/**
 * A bucketed histogram over unsigned 64-bit samples. Two bucketing
 * schemes:
 *
 *  - Log2 (default): bucket 0 holds the value 0; bucket i >= 1 holds
 *    [2^(i-1), 2^i).  65 buckets cover the whole u64 range, so
 *    recording max-u64 is safe.
 *  - Linear: bucket i holds [i*width, (i+1)*width), clamped to a
 *    fixed bucket count with a terminal overflow bucket — right for
 *    small enumerable quantities (refs per line: 0..3, covered
 *    words: 0..16).
 *
 * Exact min/max/sum ride alongside the buckets, so mean() is exact
 * and only percentiles are bucket-interpolated.
 */
class Histogram
{
  public:
    enum class Scale
    {
        Log2,
        Linear
    };

    explicit Histogram(Scale scale = Scale::Log2,
                       std::uint64_t bucket_width = 1,
                       unsigned linear_buckets = 64)
        : scale_(scale), width_(bucket_width ? bucket_width : 1),
          nlinear_(linear_buckets ? linear_buckets : 1)
    {
    }

    void
    record(std::uint64_t v, std::uint64_t n = 1)
    {
        if (!n)
            return;
        unsigned b = bucketOf(v);
        if (b >= buckets_.size())
            buckets_.resize(b + 1, 0);
        buckets_[b] += n;
        count_ += n;
        sum_ += v * n;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t samples() const { return count_; }
    std::uint64_t sum() const { return sum_; }

    std::uint64_t
    min() const
    {
        return count_ ? min_ : 0;
    }

    std::uint64_t
    max() const
    {
        return count_ ? max_ : 0;
    }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_)
                            / static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Bucket-interpolated percentile, @p p in [0, 100]. Exact when
     * every sample in the chosen bucket shares one value (always
     * true for Linear width 1); otherwise linear within the bucket,
     * clamped to the observed min/max.
     */
    double
    percentile(double p) const
    {
        if (!count_)
            return 0.0;
        if (p <= 0.0)
            return static_cast<double>(min_);
        if (p >= 100.0)
            return static_cast<double>(max_);
        // Rank of the target sample (1-based, nearest-rank).
        double target = p / 100.0 * static_cast<double>(count_);
        std::uint64_t rank = static_cast<std::uint64_t>(target);
        if (static_cast<double>(rank) < target || rank == 0)
            ++rank;
        std::uint64_t seen = 0;
        for (unsigned b = 0; b < buckets_.size(); ++b) {
            if (!buckets_[b])
                continue;
            if (seen + buckets_[b] >= rank) {
                auto [lo, hi] = bucketRange(b);
                double frac =
                    static_cast<double>(rank - seen)
                    / static_cast<double>(buckets_[b]);
                double v = static_cast<double>(lo)
                           + frac
                                 * (static_cast<double>(hi)
                                    - static_cast<double>(lo));
                v = std::max(v, static_cast<double>(min_));
                v = std::min(v, static_cast<double>(max_));
                return v;
            }
            seen += buckets_[b];
        }
        return static_cast<double>(max_);
    }

    void
    merge(const Histogram &other)
    {
        if (!other.count_)
            return;
        if (other.buckets_.size() > buckets_.size())
            buckets_.resize(other.buckets_.size(), 0);
        for (unsigned b = 0; b < other.buckets_.size(); ++b)
            buckets_[b] += other.buckets_[b];
        count_ += other.count_;
        sum_ += other.sum_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

    /**
     * Bucket-wise difference since @p earlier (an epoch snapshot of
     * this same histogram). min/max cannot be un-merged, so the
     * delta keeps the cumulative extrema — documented behaviour for
     * interval reporting.
     */
    Histogram
    delta(const Histogram &earlier) const
    {
        Histogram d(scale_, width_, nlinear_);
        d.buckets_.assign(buckets_.begin(), buckets_.end());
        for (unsigned b = 0; b < earlier.buckets_.size()
                             && b < d.buckets_.size();
             ++b)
            d.buckets_[b] -= std::min(earlier.buckets_[b],
                                      d.buckets_[b]);
        d.count_ = count_ - std::min(earlier.count_, count_);
        d.sum_ = sum_ - std::min(earlier.sum_, sum_);
        d.min_ = min_;
        d.max_ = max_;
        return d;
    }

    void
    clear()
    {
        buckets_.clear();
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
    }

    /** [lo, hi] inclusive value range of bucket @p b. */
    std::pair<std::uint64_t, std::uint64_t>
    bucketRange(unsigned b) const
    {
        if (scale_ == Scale::Linear) {
            std::uint64_t lo = static_cast<std::uint64_t>(b) * width_;
            if (b + 1 >= nlinear_) // overflow bucket
                return {lo,
                        std::numeric_limits<std::uint64_t>::max()};
            return {lo, lo + width_ - 1};
        }
        if (b == 0)
            return {0, 0};
        std::uint64_t lo = 1ull << (b - 1);
        std::uint64_t hi = b >= 64
                               ? std::numeric_limits<
                                     std::uint64_t>::max()
                               : (1ull << b) - 1;
        return {lo, hi};
    }

    const std::vector<std::uint64_t> &buckets() const
    {
        return buckets_;
    }

    void
    dumpJson(JsonWriter &jw) const
    {
        jw.beginObject();
        jw.field("scale",
                 scale_ == Scale::Log2 ? "log2" : "linear");
        if (scale_ == Scale::Linear)
            jw.field("bucket_width", width_);
        jw.field("count", count_);
        jw.field("sum", sum_);
        jw.field("min", min());
        jw.field("max", max());
        jw.field("mean", mean());
        jw.field("p50", percentile(50));
        jw.field("p90", percentile(90));
        jw.field("p99", percentile(99));
        jw.key("buckets");
        jw.beginArray();
        for (unsigned b = 0; b < buckets_.size(); ++b) {
            if (!buckets_[b])
                continue;
            auto [lo, hi] = bucketRange(b);
            jw.beginObject();
            jw.field("lo", lo);
            jw.field("hi", hi);
            jw.field("count", buckets_[b]);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
    }

  private:
    unsigned
    bucketOf(std::uint64_t v) const
    {
        if (scale_ == Scale::Linear) {
            std::uint64_t b = v / width_;
            std::uint64_t cap = nlinear_ - 1;
            return static_cast<unsigned>(std::min(b, cap));
        }
        if (v == 0)
            return 0;
        unsigned log2floor =
            63 - static_cast<unsigned>(__builtin_clzll(v));
        return log2floor + 1;
    }

    Scale scale_;
    std::uint64_t width_;
    unsigned nlinear_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

namespace detail
{

/** Every registered counter name, in counters.def (byte) order. */
inline constexpr std::string_view kCounterNames[] = {
#define CABLE_COUNTER(name) #name,
#include "common/counters.def"
};
static_assert(std::ranges::adjacent_find(kCounterNames,
                                         std::greater_equal<>())
                  == std::end(kCounterNames),
              "counters.def names must strictly increase in byte order");

/**
 * Deliberately never constexpr (nor defined): a Counter built from a
 * literal that counters.def lacks calls it during constant
 * evaluation, so the compile error names this function.
 */
void counter_name_not_in_counters_def();

} // namespace detail

/**
 * A registered counter: an index into counters.def. Built from a
 * string literal at compile time (an unregistered literal does not
 * compile), or from a run-time string through named().
 */
class Counter
{
  public:
    static constexpr std::size_t kCount = std::size(detail::kCounterNames);

    consteval Counter(const char *name) : id_(indexOf(name))
    {
        if (id_ == kCount)
            detail::counter_name_not_in_counters_def();
    }

    /** Run-time lookup: nullopt when @p name is not registered. */
    static std::optional<Counter>
    named(std::string_view name)
    {
        Counter c(indexOf(name));
        return c.id_ < kCount ? std::optional(c) : std::nullopt;
    }

    /** named() for a name that must be registered; panics if not. */
    static Counter
    require(std::string_view name)
    {
        auto c = named(name);
        if (!c)
            panic("counter \"%.*s\" is not in counters.def",
                  static_cast<int>(name.size()), name.data());
        return *c;
    }

    std::size_t id() const { return id_; }
    /** The registered name (NUL-terminated: it is a literal). */
    std::string_view name() const { return detail::kCounterNames[id_]; }

  private:
    friend class StatSet;
    explicit constexpr Counter(std::size_t id) : id_(id) {}

    /** Binary search of the sorted names; kCount when absent. */
    static constexpr std::size_t
    indexOf(std::string_view name)
    {
        const auto *it =
            std::ranges::lower_bound(detail::kCounterNames, name);
        return it != std::end(detail::kCounterNames) && *it == name
                   ? static_cast<std::size_t>(
                         it - std::begin(detail::kCounterNames))
                   : kCount;
    }

    std::size_t id_;
};

/**
 * A set of registered 64-bit counters plus named histograms and
 * quantile sketches. A counter appears in exports only once touched
 * (its first add(), even of 0); exports visit counters in
 * counters.def order and the other kinds sorted by name, so output
 * is diff-stable.
 */
class StatSet
{
  public:
    /** Adds @p delta to counter @p c (and marks it touched). */
    void
    add(Counter c, std::uint64_t delta)
    {
        counters_[c.id()] += delta;
        touched_.set(c.id());
    }

    /** Returns the counter value, or 0 if never touched. Panics on a
     *  name that counters.def does not register. */
    std::uint64_t
    get(std::string_view name) const
    {
        return counters_[Counter::require(name).id()];
    }

    /** True when the counter has been touched at least once. */
    bool
    has(std::string_view name) const
    {
        return touched_.test(Counter::require(name).id());
    }

    /**
     * num/den as double, 0 when the denominator is 0 — including
     * when it was never recorded. Kept for source compatibility;
     * use ratioOpt() when "never recorded" must be distinguishable
     * from a true zero.
     */
    double
    ratio(std::string_view num, std::string_view den) const
    {
        return ratioOpt(num, den).value_or(0.0);
    }

    /**
     * num/den, or nullopt when the denominator was never recorded
     * or recorded as zero — the "n/a" the JSON export emits as null
     * instead of a misleading 0.0.
     */
    std::optional<double>
    ratioOpt(std::string_view num, std::string_view den) const
    {
        std::uint64_t d = get(den);
        if (d == 0)
            return std::nullopt;
        return static_cast<double>(get(num)) / static_cast<double>(d);
    }

    /** Number of touched counters. */
    std::size_t counterCount() const { return touched_.count(); }

    /** Calls @p f(Counter, value) for every touched counter, in
     *  counters.def order. */
    template <class F>
    void
    forEachCounter(F &&f) const
    {
        for (std::size_t i = 0; i < Counter::kCount; ++i)
            if (touched_.test(i))
                f(Counter(i), counters_[i]);
    }

    /** Returns (creating if needed) the histogram named @p name. */
    Histogram &
    hist(const std::string &name,
         Histogram::Scale scale = Histogram::Scale::Log2,
         std::uint64_t bucket_width = 1,
         unsigned linear_buckets = 64)
    {
        auto it = hists_.find(name);
        if (it == hists_.end())
            it = hists_
                     .emplace(name, Histogram(scale, bucket_width,
                                              linear_buckets))
                     .first;
        return it->second;
    }

    /** Histogram lookup without creation. */
    const Histogram *
    findHist(const std::string &name) const
    {
        auto it = hists_.find(name);
        return it == hists_.end() ? nullptr : &it->second;
    }

    /** Returns (creating if needed) the quantile sketch @p name.
     *  Construction allocates the fixed bucket array once; map nodes
     *  are pointer-stable until clear(), so hot paths cache the
     *  reference (and re-resolve it after a clear()). */
    QuantileSketch &
    sketch(const std::string &name)
    {
        return sketches_[name];
    }

    const QuantileSketch *
    findSketch(const std::string &name) const
    {
        auto it = sketches_.find(name);
        return it == sketches_.end() ? nullptr : &it->second;
    }

    void
    clear()
    {
        counters_.fill(0);
        touched_.reset();
        hists_.clear();
        sketches_.clear();
    }

    /**
     * Plain-text dump: counters, then histograms, then sketches.
     * Histogram and sketch names are emitted through the JSON
     * escaper so a name containing spaces, quotes or control
     * characters cannot corrupt line-oriented consumers: any name
     * needing escaping is printed quoted. Counter names are
     * registered identifiers and need no escaping.
     */
    void
    dump(std::ostream &os, const std::string &prefix = "") const
    {
        auto safe = [](const std::string &name) {
            std::string esc = jsonEscape(name);
            if (esc == name && name.find(' ') == std::string::npos)
                return name;
            return "\"" + esc + "\"";
        };
        forEachCounter([&](Counter c, std::uint64_t value) {
            os << prefix << c.name() << " " << value << "\n";
        });
        for (const auto &[name, h] : hists_) {
            os << prefix << safe(name) << " n=" << h.samples()
               << " min=" << h.min() << " max=" << h.max()
               << " mean=" << h.mean() << " p50=" << h.percentile(50)
               << " p99=" << h.percentile(99) << "\n";
        }
        for (const auto &[name, s] : sketches_) {
            os << prefix << safe(name) << " n=" << s.samples()
               << " min=" << s.min() << " max=" << s.max()
               << " mean=" << s.mean()
               << " p50=" << s.quantile(0.50)
               << " p99=" << s.quantile(0.99) << "\n";
        }
    }

    /**
     * Emits this set as one JSON object with "counters",
     * "histograms", "distributions" and "sketches" sub-objects.
     * "distributions" is always empty: the cable-metrics-v1 schema
     * keeps the key, but no container kind fills it any more.
     */
    void
    dumpJson(JsonWriter &jw) const
    {
        jw.beginObject();
        jw.key("counters");
        jw.beginObject();
        forEachCounter([&](Counter c, std::uint64_t value) {
            jw.field(c.name().data(), value);
        });
        jw.endObject();
        jw.key("histograms");
        jw.beginObject();
        for (const auto &[name, h] : hists_) {
            jw.key(name);
            h.dumpJson(jw);
        }
        jw.endObject();
        jw.key("distributions");
        jw.beginObject();
        jw.endObject();
        jw.key("sketches");
        jw.beginObject();
        for (const auto &[name, s] : sketches_) {
            jw.key(name);
            s.dumpJson(jw);
        }
        jw.endObject();
        jw.endObject();
    }

    /** Merge-add every counter/histogram/sketch from @p other. */
    void
    merge(const StatSet &other)
    {
        for (std::size_t i = 0; i < Counter::kCount; ++i)
            counters_[i] += other.counters_[i];
        touched_ |= other.touched_;
        for (const auto &[name, h] : other.hists_) {
            auto it = hists_.find(name);
            if (it == hists_.end())
                hists_.emplace(name, h);
            else
                it->second.merge(h);
        }
        for (const auto &[name, s] : other.sketches_)
            sketches_[name].merge(s);
    }

    /**
     * Interval (epoch) snapshot: everything accumulated since
     * @p earlier, as a new StatSet. Counters, histogram buckets and
     * sketch buckets subtract.
     */
    StatSet
    delta(const StatSet &earlier) const
    {
        StatSet d;
        for (std::size_t i = 0; i < Counter::kCount; ++i)
            d.counters_[i] =
                counters_[i]
                - std::min(earlier.counters_[i], counters_[i]);
        d.touched_ = touched_;
        for (const auto &[name, h] : hists_) {
            const Histogram *prev = earlier.findHist(name);
            d.hists_.emplace(name, prev ? h.delta(*prev) : h);
        }
        for (const auto &[name, s] : sketches_) {
            const QuantileSketch *prev = earlier.findSketch(name);
            d.sketches_.emplace(name, prev ? s.delta(*prev) : s);
        }
        return d;
    }

  private:
    std::array<std::uint64_t, Counter::kCount> counters_{};
    std::bitset<Counter::kCount> touched_;
    std::map<std::string, Histogram> hists_;
    std::map<std::string, QuantileSketch> sketches_;
};

} // namespace cable

#endif // CABLE_COMMON_STATS_H
