/**
 * @file
 * Statistics package: registered counters, bucketed histograms and
 * quantile sketches with merge, epoch-delta and dump facilities, in
 * the spirit of gem5's stats but minimal. Every name is declared once
 * in common/counters.def (a histogram together with its bucketing)
 * and checked at compile time, so call sites stay one-liners:
 *
 *   stats.add("transfers", 1);   // every name must be in the .def
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
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>
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
class Histogram : public SampleMoments
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
        addSamples(v, n);
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
        mergeMoments(other);
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
        Histogram d = *this;
        for (unsigned b = 0; b < earlier.buckets_.size()
                             && b < d.buckets_.size();
             ++b)
            d.buckets_[b] -= std::min(earlier.buckets_[b],
                                      d.buckets_[b]);
        d.subtractMoments(earlier);
        return d;
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
        dumpMoments(jw);
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
};

namespace detail
{

/** Every registered name of each kind, in counters.def (byte) order. */
inline constexpr std::string_view kCounterNames[] = {
#define CABLE_COUNTER(name) #name,
#include "common/counters.def"
};
inline constexpr std::string_view kHistogramNames[] = {
#define CABLE_HISTOGRAM(name, scale, width, cap) #name,
#include "common/counters.def"
};
inline constexpr std::string_view kSketchNames[] = {
#define CABLE_SKETCH(name) #name,
#include "common/counters.def"
};

/** Each histogram's declared (scale, width, cap), indexed like its
 *  name: the Histogram constructor's arguments. */
inline constexpr std::tuple<Histogram::Scale, std::uint64_t, unsigned>
    kHistogramSpecs[] = {
#define CABLE_HISTOGRAM(name, scale, width, cap) \
    {Histogram::Scale::scale, width, cap},
#include "common/counters.def"
};

/**
 * Deliberately never constexpr (nor defined): a registered name
 * built from a literal that counters.def lacks calls its kind's
 * sentinel during constant evaluation, so the compile error names
 * the kind.
 */
void counter_name_not_in_counters_def();
void histogram_name_not_in_counters_def();
void sketch_name_not_in_counters_def();

} // namespace detail

/**
 * A registered name: an index into one of counters.def's name
 * tables. Built from a string literal at compile time (an
 * unregistered literal does not compile), or from a run-time string
 * through named().
 */
template <const auto &Names, void (*Missing)()>
class Registered
{
  public:
    static constexpr std::size_t kCount = std::size(Names);
    static_assert(std::ranges::adjacent_find(Names, std::greater_equal<>())
                      == std::end(Names),
                  "counters.def names must strictly increase in byte "
                  "order");
    static_assert(std::ranges::all_of(Names, [](std::string_view n) {
                      return n.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                                 "0123456789_") == n.npos;
                  }),
                  "counters.def names must be lower-case identifiers");

    consteval Registered(const char *name) : id_(indexOf(name))
    {
        if (id_ == kCount)
            Missing();
    }

    /** Run-time lookup: nullopt when @p name is not registered. */
    static std::optional<Registered>
    named(std::string_view name)
    {
        Registered r(indexOf(name));
        return r.id_ < kCount ? std::optional(r) : std::nullopt;
    }

    /** named() for a name that must be registered; panics if not. */
    static Registered
    require(std::string_view name)
    {
        auto r = named(name);
        if (!r)
            panic("\"%.*s\" is not in counters.def",
                  static_cast<int>(name.size()), name.data());
        return *r;
    }

    std::size_t id() const { return id_; }
    /** The registered name (NUL-terminated: it is a literal). */
    std::string_view name() const { return Names[id_]; }

  private:
    friend class StatSet;
    explicit constexpr Registered(std::size_t id) : id_(id) {}

    /** Binary search of the sorted names; kCount when absent. */
    static constexpr std::size_t
    indexOf(std::string_view name)
    {
        const auto *it = std::ranges::lower_bound(Names, name);
        return it != std::end(Names) && *it == name
                   ? static_cast<std::size_t>(it - std::begin(Names))
                   : kCount;
    }

    std::size_t id_;
};

using Counter = Registered<detail::kCounterNames,
                           detail::counter_name_not_in_counters_def>;
using HistogramId =
    Registered<detail::kHistogramNames,
               detail::histogram_name_not_in_counters_def>;
using SketchId = Registered<detail::kSketchNames,
                            detail::sketch_name_not_in_counters_def>;

/**
 * A set of registered 64-bit counters, histograms and quantile
 * sketches, each kind in an array indexed by its counters.def
 * position. A stat appears in exports only once touched: a counter
 * by its first add() (even of 0), a histogram or sketch by its first
 * hist()/sketch(), which builds it (a sketch's bucket array is
 * allocated then, not before). Exports visit each kind in
 * counters.def order, so output is diff-stable.
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

    /** Returns histogram @p h, built from its declared bucketing on
     *  first use. */
    Histogram &
    hist(HistogramId h)
    {
        std::optional<Histogram> &slot = hists_[h.id()];
        if (!slot)
            slot = std::make_from_tuple<Histogram>(
                detail::kHistogramSpecs[h.id()]);
        return *slot;
    }

    /** The touched histogram named @p name, else nullptr. */
    const Histogram *
    findHist(std::string_view name) const
    {
        auto h = HistogramId::named(name);
        return h && hists_[h->id()] ? &*hists_[h->id()] : nullptr;
    }

    /** Returns quantile sketch @p s, allocating its fixed bucket
     *  array on first use. */
    QuantileSketch &
    sketch(SketchId s)
    {
        std::optional<QuantileSketch> &slot = sketches_[s.id()];
        if (!slot)
            slot.emplace();
        return *slot;
    }

    /** The touched sketch named @p name, else nullptr. */
    const QuantileSketch *
    findSketch(std::string_view name) const
    {
        auto s = SketchId::named(name);
        return s && sketches_[s->id()] ? &*sketches_[s->id()] : nullptr;
    }

    void
    clear()
    {
        counters_.fill(0);
        touched_.reset();
        hists_.fill(std::nullopt);
        sketches_.fill(std::nullopt);
    }

    /** Plain-text dump: counters, then histograms, then sketches.
     *  Every name is a registered identifier, so none needs
     *  escaping. */
    void
    dump(std::ostream &os, const std::string &prefix = "") const
    {
        forEachCounter([&](Counter c, std::uint64_t value) {
            os << prefix << c.name() << " " << value << "\n";
        });
        auto line = [&](const char *name, const SampleMoments &m,
                        double p50, double p99) {
            os << prefix << name << " n=" << m.samples()
               << " min=" << m.min() << " max=" << m.max()
               << " mean=" << m.mean() << " p50=" << p50
               << " p99=" << p99 << "\n";
        };
        each<HistogramId>(hists_, [&](const char *n, const Histogram &h) {
            line(n, h, h.percentile(50), h.percentile(99));
        });
        each<SketchId>(sketches_, [&](const char *n, const QuantileSketch &s) {
            line(n, s, s.quantile(0.50), s.quantile(0.99));
        });
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
        auto section = [&](const char *name, const auto &stat) {
            jw.key(name);
            stat.dumpJson(jw);
        };
        jw.key("histograms");
        jw.beginObject();
        each<HistogramId>(hists_, section);
        jw.endObject();
        jw.key("distributions");
        jw.beginObject();
        jw.endObject();
        jw.key("sketches");
        jw.beginObject();
        each<SketchId>(sketches_, section);
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
        mergeAll(hists_, other.hists_);
        mergeAll(sketches_, other.sketches_);
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
        deltaAll(d.hists_, hists_, earlier.hists_);
        deltaAll(d.sketches_, sketches_, earlier.sketches_);
        return d;
    }

  private:
    template <class T, std::size_t N>
    using Slots = std::array<std::optional<T>, N>;

    /** Calls @p f(name, stat) for every touched slot, in order. */
    template <class Id, class T, std::size_t N, class F>
    static void
    each(const Slots<T, N> &slots, F &&f)
    {
        for (std::size_t i = 0; i < N; ++i)
            if (slots[i])
                f(Id(i).name().data(), *slots[i]);
    }

    template <class T, std::size_t N>
    static void
    mergeAll(Slots<T, N> &into, const Slots<T, N> &from)
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (!from[i])
                continue;
            if (into[i])
                into[i]->merge(*from[i]);
            else
                into[i] = from[i];
        }
    }

    template <class T, std::size_t N>
    static void
    deltaAll(Slots<T, N> &out, const Slots<T, N> &later,
             const Slots<T, N> &earlier)
    {
        for (std::size_t i = 0; i < N; ++i)
            if (later[i])
                out[i] = earlier[i] ? later[i]->delta(*earlier[i])
                                    : *later[i];
    }

    std::array<std::uint64_t, Counter::kCount> counters_{};
    std::bitset<Counter::kCount> touched_;
    Slots<Histogram, HistogramId::kCount> hists_;
    Slots<QuantileSketch, SketchId::kCount> sketches_;
};

} // namespace cable

#endif // CABLE_COMMON_STATS_H
