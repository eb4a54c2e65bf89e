/**
 * @file
 * Search-pipeline latency model (§IV-D). The paper's Verilog
 * implementation processes signatures independently: hashing, hash-
 * table access, data-array read, CBV build and ranking take eight
 * cycles per signature, and the 2-way-banked hash-table SRAM limits
 * issue to two signatures per cycle. Worst case (16 signatures) is
 * 16 cycles of search; a zero-dominant line with few non-trivial
 * words finishes in as little as eight.
 *
 * Compression and decompression (Fig 10) each take two 8-cycle
 * steps at 8B/cycle: build the temporary dictionary, then run the
 * DIFF — giving Table IV's worst-case 32/16 comp/decomp and the
 * 48-cycle end-to-end figure. The simulators use the worst case by
 * default (as the paper's results do) with the per-transfer modelled
 * latency available behind MemSystemConfig::modeled_latency.
 */

#ifndef CABLE_CORE_PIPELINE_H
#define CABLE_CORE_PIPELINE_H

#include "common/bitops.h"
#include "common/stats.h"
#include "common/types.h"

namespace cable
{

struct SearchPipelineModel
{
    /** Hash-table SRAM banks → signatures issued per cycle. */
    unsigned hash_banks = 2;
    /** Per-signature depth: hash, table read, data read, CBV, rank. */
    unsigned per_sig_cycles = 8;
    /** One 64B dictionary/DIFF pass at 8B/cycle. */
    unsigned engine_step_cycles = 8;

    /** Search latency for a request with @p nsigs signatures. */
    Cycles
    searchCycles(unsigned nsigs) const
    {
        if (nsigs == 0)
            return per_sig_cycles; // the no-signature pass still
                                   // drains the pipeline
        return per_sig_cycles
               + static_cast<Cycles>(ceilDiv(nsigs, hash_banks));
    }

    /** Sender latency: search + dictionary build + DIFF pass. */
    Cycles
    compressionCycles(unsigned nsigs) const
    {
        Cycles s = searchCycles(nsigs);
        Cycles worst = worstCaseCompression();
        Cycles c = s + 2 * engine_step_cycles;
        return c > worst ? worst : c;
    }

    /** Receiver latency: dictionary build + decompress. */
    Cycles
    decompressionCycles() const
    {
        return 2 * engine_step_cycles;
    }

    /** Table IV's conservative figures (32/16, 48 end-to-end). */
    Cycles
    worstCaseCompression() const
    {
        return searchCycles(kWordsPerLine) + 2 * engine_step_cycles;
    }

    /**
     * Records the per-stage cycle counts for a request with @p nsigs
     * signatures into @p stats as linear histograms — the telemetry
     * view of the modelled-latency distribution (Fig 10 stages).
     */
    void
    recordStages(StatSet &stats, unsigned nsigs) const
    {
        stats.hist("pipe_search_cycles").record(searchCycles(nsigs));
        stats.hist("pipe_comp_cycles").record(compressionCycles(nsigs));
        stats.hist("pipe_decomp_cycles").record(decompressionCycles());
    }
};

} // namespace cable

#endif // CABLE_CORE_PIPELINE_H
