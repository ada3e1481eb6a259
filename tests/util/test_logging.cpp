#include "util/logging.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace uucs {
namespace {

/// Restores the global log level after each test.
class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = Logger::instance().level(); }
  void TearDown() override { Logger::instance().set_level(saved_); }
  LogLevel saved_ = LogLevel::kInfo;
};

TEST_F(LoggingTest, LevelRoundTrip) {
  Logger::instance().set_level(LogLevel::kError);
  EXPECT_EQ(Logger::instance().level(), LogLevel::kError);
  Logger::instance().set_level(LogLevel::kDebug);
  EXPECT_EQ(Logger::instance().level(), LogLevel::kDebug);
}

TEST_F(LoggingTest, EnabledFollowsTheThreshold) {
  Logger::instance().set_level(LogLevel::kWarn);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kWarn));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kError));
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kOff));
  Logger::instance().set_level(LogLevel::kOff);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kError));
}

TEST_F(LoggingTest, BelowThresholdIsDropped) {
  // No crash and no way to observe stderr here; this exercises the filter
  // paths including kOff, which must drop everything.
  Logger::instance().set_level(LogLevel::kOff);
  log_debug("t", "dropped");
  log_info("t", "dropped");
  log_warn("t", "dropped");
  log_error("t", "dropped");
}

TEST_F(LoggingTest, ConvenienceWrappersRun) {
  Logger::instance().set_level(LogLevel::kError);  // keep test output clean
  log_debug("test", "debug message");
  log_info("test", "info message");
  log_warn("test", "warn message");
  log_error("test", "error message");  // the only one that prints
}

TEST_F(LoggingTest, ThreadSafeUnderConcurrentUse) {
  Logger::instance().set_level(LogLevel::kOff);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        log_info("race", "message");
        Logger::instance().set_level(LogLevel::kOff);
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST_F(LoggingTest, SingletonIdentity) {
  EXPECT_EQ(&Logger::instance(), &Logger::instance());
}

}  // namespace
}  // namespace uucs
