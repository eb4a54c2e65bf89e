/**
 * @file
 * Must NOT compile: "transfer" is a misspelling of the registered
 * counter "transfers". The ctest stats.misspelt_counter_fails_to_compile
 * builds this file and passes only when the build fails with the
 * registry's sentinel diagnostic.
 */

#include "common/stats.h"

void
countOneTransfer(cable::StatSet &stats)
{
    stats.add("transfer", 1);
}
