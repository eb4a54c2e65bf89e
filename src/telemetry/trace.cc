#include "telemetry/trace.h"

#include <cstring>

#include "common/alloc_guard.h"
#include "common/json.h"

namespace cable
{

const char *
TraceEvent::typeName(Type t)
{
    switch (t) {
    case Type::Encode: return "encode";
    case Type::Retransmit: return "retransmit";
    case Type::RawFallback: return "raw_fallback";
    case Type::Desync: return "desync";
    case Type::Recovery: return "recovery";
    case Type::Audit: return "audit";
    case Type::MetaFault: return "meta_fault";
    case Type::SyncDrop: return "sync_drop";
    case Type::Fault: return "fault";
    case Type::StructSnapshot: return "struct_snapshot";
    case Type::Crash: return "crash";
    case Type::Resync: return "resync";
    case Type::Checkpoint: return "checkpoint";
    case Type::Timeout: return "timeout";
    case Type::Phase: return "phase";
    }
    return "unknown";
}

namespace
{

/** Indexable by static_cast<unsigned>(Stage). */
const char *const kStageNames[kStageCount] = {
    "line",  "signature", "probe", "score",      "serialize",
    "frame", "link",      "ack",   "retransmit", "resync",
};

} // namespace

const char *
stageName(Stage s)
{
    unsigned i = static_cast<unsigned>(s);
    return i < kStageCount ? kStageNames[i] : "unknown";
}

bool
stageFromName(const char *name, Stage &out)
{
    for (unsigned i = 0; i < kStageCount; ++i)
        if (std::strcmp(name, kStageNames[i]) == 0) {
            out = static_cast<Stage>(i);
            return true;
        }
    return false;
}

namespace
{

/** Shared field emission so both sinks agree on the schema. */
// cable-lint: no-alloc (JsonWriter escapes straight into the stream;
// every key is a literal and every value a scalar or static string)
void
writeEventFields(JsonWriter &jw, const TraceEvent &ev)
{
    jw.field("addr", static_cast<std::uint64_t>(ev.addr));
    jw.field("dir", ev.writeback ? "wb" : "resp");
    if (ev.type == TraceEvent::Type::Encode) {
        jw.field("engine", ev.engine);
        jw.field("mode", ev.mode);
        jw.field("sigs", ev.sigs);
        jw.field("trivial", ev.trivial);
        jw.field("cands", ev.candidates);
        jw.field("ranked", ev.ranked);
        jw.field("refs", ev.refs);
        jw.field("cbv",
                 static_cast<std::uint64_t>(ev.cbv));
        jw.field("covered", ev.covered);
        jw.field("in_bits", ev.in_bits);
        jw.field("out_bits", ev.out_bits);
    }
    if (ev.aux)
        jw.field("aux", ev.aux);
    if (ev.nspans > 0) {
        jw.key("spans");
        jw.beginArray();
        for (unsigned i = 0; i < ev.nspans; ++i) {
            const StageSpan &s = ev.spans[i];
            jw.beginObject();
            jw.field("stage", stageName(s.stage));
            jw.field("dep", static_cast<int>(s.dep));
            jw.field("begin_ns", s.begin_ns);
            jw.field("end_ns", s.end_ns);
            if (s.aux)
                jw.field("aux", static_cast<unsigned>(s.aux));
            jw.endObject();
        }
        jw.endArray();
    }
}

} // namespace

// cable-lint: no-alloc (steady state: the stream's buffer is owned
// by the caller and may grow on first use; the writer itself never
// allocates — emitAllocs() is the runtime check)
void
JsonlTraceSink::emit(const TraceEvent &ev)
{
    alloc_guard::Scope guard;
    ++emitted_;
    JsonWriter jw(os_);
    jw.beginObject();
    jw.field("seq", seq_++);
    jw.field("t", ev.when);
    jw.field("ev", TraceEvent::typeName(ev.type));
    writeEventFields(jw, ev);
    jw.endObject();
    os_ << "\n";
    emit_allocs_ += guard.allocations();
}

void
JsonlTraceSink::flush()
{
    os_.flush();
}

ChromeTraceSink::~ChromeTraceSink()
{
    ChromeTraceSink::flush();
}

void
ChromeTraceSink::writeMetadata()
{
    // Track-naming metadata (ph "M") so chrome://tracing / Perfetto
    // label the process and the two direction tracks instead of
    // showing bare pid/tid numbers. Emitted once, ahead of the first
    // real event; metadata events do not count as emitted().
    struct Meta
    {
        const char *name;
        unsigned tid;
        const char *value;
    };
    static const Meta kMeta[] = {
        {"process_name", 0, "cable link"},
        {"thread_name", 1, "resp (home->remote)"},
        {"thread_name", 2, "wb (remote->home)"},
    };
    for (const Meta &m : kMeta) {
        os_ << (open_ ? ",\n" : "[\n");
        open_ = true;
        JsonWriter jw(os_);
        jw.beginObject();
        jw.field("name", m.name);
        jw.field("ph", "M");
        jw.field("pid", 1);
        if (m.tid)
            jw.field("tid", m.tid);
        jw.key("args");
        jw.beginObject();
        jw.field("name", m.value);
        jw.endObject();
        jw.endObject();
    }
}

// cable-lint: no-alloc (same steady-state contract as the JSONL
// sink; spans become ph "X" duration slices on the direction track)
void
ChromeTraceSink::emit(const TraceEvent &ev)
{
    if (closed_)
        return;
    if (!open_)
        writeMetadata();
    alloc_guard::Scope guard;
    ++emitted_;
    os_ << (open_ ? ",\n" : "[\n");
    open_ = true;
    JsonWriter jw(os_);
    jw.beginObject();
    jw.field("name", TraceEvent::typeName(ev.type));
    jw.field("ph", "i");
    jw.field("s", "t");
    jw.field("pid", 1);
    jw.field("tid", ev.writeback ? 2 : 1);
    jw.field("ts", ev.when);
    jw.key("args");
    jw.beginObject();
    writeEventFields(jw, ev);
    jw.endObject();
    jw.endObject();
    // Stage spans as complete ("X") slices on the recorder's own
    // nanosecond clock, microsecond units per the trace_event spec;
    // chrome://tracing renders them as a flame-style timeline.
    for (unsigned i = 0; i < ev.nspans; ++i) {
        const StageSpan &s = ev.spans[i];
        os_ << ",\n";
        JsonWriter sw(os_);
        sw.beginObject();
        sw.field("name", stageName(s.stage));
        sw.field("ph", "X");
        sw.field("pid", 1);
        sw.field("tid", ev.writeback ? 2 : 1);
        sw.field("ts",
                 static_cast<double>(s.begin_ns) / 1000.0);
        sw.field("dur",
                 static_cast<double>(s.durationNs()) / 1000.0);
        sw.key("args");
        sw.beginObject();
        sw.field("seq", ev.when);
        sw.field("dep", static_cast<int>(s.dep));
        if (s.aux)
            sw.field("aux", static_cast<unsigned>(s.aux));
        sw.endObject();
        sw.endObject();
    }
    emit_allocs_ += guard.allocations();
}

void
ChromeTraceSink::flush()
{
    if (closed_)
        return;
    os_ << (open_ ? "\n]\n" : "[]\n");
    closed_ = true;
    os_.flush();
}

} // namespace cable
