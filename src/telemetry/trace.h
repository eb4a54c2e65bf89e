/**
 * @file
 * Structured per-line trace events. The paper's evaluation lives on
 * per-line distributions (refs per line, CBV coverage, candidate
 * depth, compressed size); aggregate counters can hide a regression
 * in any of them. A TraceSink receives one TraceEvent per encoder
 * decision — plus desync/ARQ/fault events — and serializes it:
 *
 *  - NullTraceSink     drops everything (API completeness; callers
 *                      normally just keep a nullptr);
 *  - JsonlTraceSink    one JSON object per line, the analysis-
 *                      friendly default (`jq`-able, streamable);
 *  - ChromeTraceSink   Chrome trace_event JSON (chrome://tracing /
 *                      Perfetto) — instant events on one track;
 *  - SamplingTraceSink deterministic 1-in-N pass-through for encode
 *                      events (counter-based, so a fixed seed and
 *                      workload reproduce the identical trace);
 *                      rare control events always pass.
 *
 * Emission is hot-path code: call sites guard on `sink != nullptr`
 * and only then build the event, so a run without tracing pays one
 * pointer test per transfer.
 */

#ifndef CABLE_TELEMETRY_TRACE_H
#define CABLE_TELEMETRY_TRACE_H

#include <cstdint>
#include <ostream>

#include "common/types.h"

namespace cable
{

/**
 * Pipeline stages of one transfer, the node vocabulary of the
 * critical-path DAG (DESIGN.md §13). The encode chain is
 * line → signature → probe → score → serialize → frame → link →
 * ack; retransmit and resync appear only on the fault paths. A
 * stage may occur more than once per transfer (e.g. the
 * self-compression probe and the reference DIFF are both
 * `serialize` spans) — spans are the nodes, the stage is a label.
 */
enum class Stage : std::uint8_t
{
    Line,       ///< payload acquisition + trivial-word scan
    Signature,  ///< search-signature extraction (§III-B)
    Probe,      ///< signature hash-table probe
    Score,      ///< pre-rank + CBV scoring + greedy select (§III-C)
    Serialize,  ///< delegate-engine compress + wire serialization
    Frame,      ///< frame CRC append / check
    Link,       ///< receive side: decode + end-to-end verify
    Ack,        ///< post-delivery accounting (clean ACK path)
    Retransmit, ///< NACK-triggered resend stall (aux = attempts)
    Resync,     ///< desync recovery / resync-epoch work
};

/** Number of Stage enumerators (array sizing). */
constexpr unsigned kStageCount = 10;

/** Stable lower-case stage name ("line", "signature", ...). */
const char *stageName(Stage s);

/** Parses a stageName() string; returns false on no match. */
bool stageFromName(const char *name, Stage &out);

/**
 * One causal stage span of a transfer: a begin/end interval on the
 * recorder's monotonic nanosecond clock plus an explicit dependency
 * edge (`dep` = index of the parent span within the same event,
 * -1 for a root). Spans ride on the owning TraceEvent, so sampling
 * and serialization follow the event stream.
 */
struct StageSpan
{
    Stage stage = Stage::Line;
    std::int8_t dep = -1;  ///< parent span index; -1 = root
    std::uint16_t aux = 0; ///< per-stage detail (retry attempt, ...)
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;

    std::uint64_t
    durationNs() const
    {
        return end_ns >= begin_ns ? end_ns - begin_ns : 0;
    }
};

/** One telemetry event. Encode carries the full decision record. */
struct TraceEvent
{
    enum class Type
    {
        Encode,      ///< a line crossed the link (every transfer)
        Retransmit,  ///< CRC NACK → compressed frame resent
        RawFallback, ///< gave up on the compressed frame
        Desync,      ///< end-to-end decode check failed
        Recovery,    ///< metadata flush + resynchronize completed
        Audit,       ///< periodic §III-F invariant sweep ran
        MetaFault,   ///< injected metadata soft error landed
        SyncDrop,    ///< eviction/upgrade notice lost
        Fault,       ///< injector corrupted a wire frame
        StructSnapshot, ///< structure probe taken (aux = HT occupancy)
        Crash,       ///< endpoint crash lost the dictionaries
        Resync,      ///< resync-protocol progress (aux = ranges/lines)
        Checkpoint,  ///< checkpoint captured or restored
        Timeout,     ///< ARQ watchdog fired (aux = retry cycles)
        Phase,       ///< phase-detector boundary (aux = new phase)
    };

    Type type = Type::Encode;
    std::uint64_t when = 0; ///< logical time (transfer ordinal)
    Addr addr = 0;
    bool writeback = false;

    // ---- encode decision record -------------------------------------
    const char *engine = "";  ///< delegate engine name
    const char *mode = "";    ///< "raw" | "self" | "refs"
    unsigned sigs = 0;        ///< search signatures extracted
    unsigned trivial = 0;     ///< trivial words skipped (§III-B)
    unsigned candidates = 0;  ///< hash-table hits before pre-rank
    unsigned ranked = 0;      ///< candidates surviving pre-rank
    unsigned refs = 0;        ///< references selected
    std::uint32_t cbv = 0;    ///< union CBV of the selected refs
    unsigned covered = 0;     ///< words covered by that union
    std::uint64_t in_bits = 0;  ///< uncompressed payload bits
    std::uint64_t out_bits = 0; ///< wire payload bits (after CABLE)

    // ---- integrity / recovery detail --------------------------------
    std::uint64_t aux = 0; ///< retries, mismatch word, flips,
                           ///< relinked lines — per type

    // ---- causal stage spans (critical-path profiling) ---------------
    /** Fixed capacity keeps the event stack-built and the recording
     *  path allocation-free. It holds the deepest chain a transfer
     *  can record, whatever the retry budget: line, serialize ×3
     *  (self, refs, wire), signature, probe, score, frame ×2 (CRC
     *  append, receive check), retransmit (the whole ARQ resend
     *  loop), link (a failed decode), retransmit (the raw
     *  fallback), ack. */
    static constexpr unsigned kMaxSpans = 13;
    std::uint8_t nspans = 0; ///< 0 on unsampled transfers
    /** Only [0, nspans) is ever written or read. StageSpan's member
     *  initializers still run for every slot when a TraceEvent is
     *  built, ~300 bytes of stores, so the per-transfer Encode event
     *  is one reused object (CableChannel::encode_ev_) instead. */
    StageSpan spans[kMaxSpans];

    static const char *typeName(Type t);
};

class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void emit(const TraceEvent &ev) = 0;
    virtual void flush() {}

    /** Events actually serialized (post-sampling). */
    std::uint64_t emitted() const { return emitted_; }

    /**
     * Heap allocations observed inside emit() calls — the runtime
     * twin of the emit paths' `// cable-lint: no-alloc` contract.
     * Always 0 unless the alloc-guard hooks are linked (test
     * binaries only; see common/alloc_guard.h), and 0 in steady
     * state there too: enabling sampled tracing must not violate
     * the allocation-free encode invariant.
     */
    std::uint64_t emitAllocs() const { return emit_allocs_; }

  protected:
    std::uint64_t emitted_ = 0;
    std::uint64_t emit_allocs_ = 0;
};

/** Swallows every event. */
class NullTraceSink : public TraceSink
{
  public:
    void
    emit(const TraceEvent &) override
    {
    }
};

/** One JSON object per line; keys are stable across event types. */
class JsonlTraceSink : public TraceSink
{
  public:
    explicit JsonlTraceSink(std::ostream &os) : os_(os) {}
    void emit(const TraceEvent &ev) override;
    void flush() override;

  private:
    std::ostream &os_;
    std::uint64_t seq_ = 0;
};

/**
 * Chrome trace_event ("JSON Array Format"): instant events with the
 * decision record in "args". flush() closes the array; the output
 * loads directly into chrome://tracing or ui.perfetto.dev.
 */
class ChromeTraceSink : public TraceSink
{
  public:
    explicit ChromeTraceSink(std::ostream &os) : os_(os) {}
    ~ChromeTraceSink() override;
    void emit(const TraceEvent &ev) override;
    void flush() override;

  private:
    /** Emits process/thread-name metadata before the first event. */
    void writeMetadata();

    std::ostream &os_;
    bool open_ = false;
    bool closed_ = false;
};

/**
 * Deterministic 1-in-N sampler wrapping another sink. Encode events
 * pass when (encode_ordinal % period == 0); every other event type
 * passes unconditionally (they are rare and carry recovery detail a
 * sample must not lose). period == 1 forwards everything, keeping
 * the exact-reconciliation property of the full trace.
 */
class SamplingTraceSink : public TraceSink
{
  public:
    SamplingTraceSink(TraceSink &inner, std::uint64_t period)
        : inner_(inner), period_(period ? period : 1)
    {
    }

    void
    emit(const TraceEvent &ev) override
    {
        if (ev.type == TraceEvent::Type::Encode
            && (encode_seen_++ % period_) != 0)
            return;
        ++emitted_;
        inner_.emit(ev);
    }

    void
    flush() override
    {
        inner_.flush();
    }

    std::uint64_t encodeSeen() const { return encode_seen_; }

  private:
    TraceSink &inner_;
    std::uint64_t period_;
    std::uint64_t encode_seen_ = 0;
};

} // namespace cable

#endif // CABLE_TELEMETRY_TRACE_H
