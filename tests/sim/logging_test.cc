/** @file Unit tests for the status / error reporting helpers. */

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <string>

namespace tpv {
namespace {

TEST(Logging, WarnAndInformWriteTaggedLinesToStderr)
{
    ::testing::internal::CaptureStderr();
    warn("x");
    inform("y");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              std::string("warn: x\ninfo: y\n"));
}

} // namespace
} // namespace tpv
