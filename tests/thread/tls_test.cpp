/// \file tls_test.cpp
/// \brief Unit tests for thread-specific data keys.

#include "thread/tls.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "thread/mutex.hpp"
#include "thread/thread.hpp"

namespace pml::thread {
namespace {

TEST(TlsKey, DefaultsWhenUnset) {
  TlsKey<int> key;
  EXPECT_FALSE(key.has());
  EXPECT_EQ(key.get(), 0);
}

TEST(TlsKey, SetThenGetOnSameThread) {
  TlsKey<std::string> key;
  key.set("mine");
  EXPECT_TRUE(key.has());
  EXPECT_EQ(key.get(), "mine");
}

TEST(TlsKey, EachThreadSeesItsOwnValue) {
  TlsKey<int> key;
  std::atomic<bool> mismatch{false};
  fork_join(8, [&](int id) {
    key.set(id * 100);
    // Give other threads time to overwrite if values were shared.
    for (volatile int spin = 0; spin < 10000;) {
      spin = spin + 1;
    }
    if (key.get() != id * 100) mismatch = true;
  });
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(key.population(), 8u);
}

TEST(TlsKey, ClearDropsEverything) {
  TlsKey<int> key;
  key.set(1);
  key.clear();
  EXPECT_FALSE(key.has());
  EXPECT_EQ(key.population(), 0u);
}

TEST(TlsKey, PrivatizationAccumulatorPattern) {
  // The manual-reduction idiom: accumulate per thread, then combine.
  TlsKey<long> partial;
  Mutex mu;
  long total = 0;
  fork_join(4, [&](int) {
    long local = 0;
    for (int i = 0; i < 1000; ++i) local += 1;
    partial.set(local);
    LockGuard g(mu);
    total += partial.get();
  });
  EXPECT_EQ(total, 4000);
}

}  // namespace
}  // namespace pml::thread
