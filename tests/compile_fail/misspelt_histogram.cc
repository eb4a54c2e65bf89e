/**
 * @file
 * Must NOT compile: "ref_per_line" is a misspelling of the registered
 * histogram "refs_per_line". The ctest
 * stats.misspelt_histogram_fails_to_compile builds this file and
 * passes only when the build fails with the histogram registry's
 * sentinel diagnostic.
 */

#include "common/stats.h"

void
recordRefs(cable::StatSet &stats, unsigned nrefs)
{
    stats.hist("ref_per_line").record(nrefs);
}
