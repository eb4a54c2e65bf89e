/**
 * @file
 * Eviction buffer (§IV-A): a small remote-side structure holding
 * copies of evicted lines until the home cache acknowledges that it
 * has stopped using them as references. Each eviction gets a
 * sequence number (EvictSeq) that piggybacks on the next request;
 * the home cache echoes the last EvictSeq it has observed, at which
 * point all entries at or below that number can be retired.
 *
 * This closes the select-while-evicting race even over out-of-order
 * transports: a compressed response arriving after the reference was
 * evicted can still read the reference data out of the buffer.
 */

#ifndef CABLE_CORE_EVICTION_BUFFER_H
#define CABLE_CORE_EVICTION_BUFFER_H

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "common/line.h"
#include "common/stats.h"
#include "common/types.h"

namespace cable
{

class EvictionBuffer
{
  public:
    explicit EvictionBuffer(std::size_t capacity = 8)
        : capacity_(capacity)
    {
    }

    /**
     * Records an eviction from remote slot @p lid and returns its
     * EvictSeq. If the buffer is full the oldest entry is dropped
     * (safe only once acknowledged; callers should size the buffer
     * to the link's round-trip outstanding count).
     */
    // cable-lint: allow(R004) the seq is advisory — it piggybacks on
    // the next request; acknowledge() consumes lastSeq() instead
    std::uint64_t
    push(LineID lid, const CacheLine &data)
    {
        if (entries_.size() >= capacity_) {
            entries_.pop_front();
            ++overflow_drops_;
        }
        std::uint64_t seq = ++seq_clock_;
        entries_.push_back(Entry{seq, lid, data});
        ++pushes_;
        return seq;
    }

    /** Most recent EvictSeq (0 if none ever pushed). */
    std::uint64_t lastSeq() const { return seq_clock_; }

    /** Retires every entry with seq <= @p acked_seq. */
    void
    acknowledge(std::uint64_t acked_seq)
    {
        while (!entries_.empty()
               && entries_.front().seq <= acked_seq) {
            entries_.pop_front();
            ++retired_;
        }
    }

    /**
     * Looks up the data of a recently evicted remote slot; used when
     * a compressed response references a line that has since left
     * the cache.
     */
    std::optional<CacheLine>
    find(LineID lid) const
    {
        ++finds_;
        // Newest first: a slot may have been evicted twice.
        for (auto it = entries_.rbegin(); it != entries_.rend();
             ++it) {
            if (it->lid == lid) {
                ++find_hits_;
                return it->data;
            }
        }
        return std::nullopt;
    }

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    /**
     * Drops every entry without retiring it (endpoint crash: the
     * buffered copies are gone). The sequence clock keeps counting
     * so post-crash EvictSeqs stay monotone.
     */
    void clearAll() { entries_.clear(); }

    /**
     * Structure introspection probe: current fill plus lifetime
     * traffic — pushes, retirements, capacity-overflow drops (a
     * non-zero value means the buffer is undersized for the link's
     * outstanding count) and race-closure lookups.
     */
    void
    snapshot(StatSet &out, const std::string &prefix) const
    {
        out.add(Counter::require(prefix + "capacity"), capacity_);
        out.add(Counter::require(prefix + "size"), entries_.size());
        out.add(Counter::require(prefix + "last_seq"), seq_clock_);
        out.add(Counter::require(prefix + "pushes"), pushes_);
        out.add(Counter::require(prefix + "retired"), retired_);
        out.add(Counter::require(prefix + "overflow_drops"), overflow_drops_);
        out.add(Counter::require(prefix + "finds"), finds_);
        out.add(Counter::require(prefix + "find_hits"), find_hits_);
    }

  private:
    /** Serializes/restores entries, the sequence clock and counters
     *  (core/checkpoint.h). */
    friend class ChannelCheckpoint;

    struct Entry
    {
        std::uint64_t seq;
        LineID lid;
        CacheLine data;
    };

    std::size_t capacity_;
    std::uint64_t seq_clock_ = 0;
    std::deque<Entry> entries_;

    // Lifetime traffic counters; find() is logically const but still
    // traffic, hence mutable.
    std::uint64_t pushes_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t overflow_drops_ = 0;
    mutable std::uint64_t finds_ = 0;
    mutable std::uint64_t find_hits_ = 0;
};

} // namespace cable

#endif // CABLE_CORE_EVICTION_BUFFER_H
