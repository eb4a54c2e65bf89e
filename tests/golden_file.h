/**
 * @file
 * Golden-file check for simulator tests: the text summary of a
 * fixed-seed run must equal the committed fixture under tests/data
 * byte for byte. Regenerate a fixture only for a change that means
 * to alter simulator behaviour:
 *
 *   CABLE_WRITE_GOLDEN=1 ./test_numa
 */

#ifndef CABLE_TESTS_GOLDEN_FILE_H
#define CABLE_TESTS_GOLDEN_FILE_H

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

inline void
expectMatchesGolden(const std::string &file, const std::string &got)
{
    const std::string path = std::string(CABLE_TEST_DATA_DIR) + "/" + file;
    if (std::getenv("CABLE_WRITE_GOLDEN")) {
        std::ofstream(path) << got;
        GTEST_SKIP() << "golden fixture regenerated at " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing " << path;
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str()) << "run differs from " << path;
}

#endif // CABLE_TESTS_GOLDEN_FILE_H
