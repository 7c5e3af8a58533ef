/// \file task_test.cpp
/// \brief Tests for the explicit-task construct (#pragma omp task analogue).

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "smp/team.hpp"
#include "thread/mutex.hpp"

namespace pml::smp {
namespace {

TEST(Tasks, TaskwaitRunsAllDeferredTasks) {
  std::atomic<int> ran{0};
  parallel(4, [&](Region& r) {
    if (r.thread_num() == 0) {
      for (int i = 0; i < 100; ++i) {
        r.task([&] { ran.fetch_add(1); });
      }
    }
    r.taskwait();
    // Only the producing thread can assert here: another thread's taskwait
    // may have found the pool empty before any task was pushed.
    if (r.thread_num() == 0) {
      EXPECT_EQ(ran.load(), 100);
    }
  });
  EXPECT_EQ(ran.load(), 100);
}

TEST(Tasks, BarrierIsASchedulingPoint) {
  std::atomic<int> ran{0};
  std::atomic<bool> violated{false};
  parallel(4, [&](Region& r) {
    r.task([&] { ran.fetch_add(1); });
    r.barrier();
    if (ran.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(ran.load(), 4);
}

TEST(Tasks, TasksMaySpawnTasks) {
  std::atomic<int> leaves{0};
  parallel(4, [&](Region& r) {
    // A small recursive fan-out: 1 root -> 3 children -> 9 grandchildren.
    // `spawn` must outlive every deferred task that captures it, so it is
    // declared before the scheduling point that drains them.
    std::function<void(int)> spawn = [&](int depth) {
      if (depth == 2) {
        leaves.fetch_add(1);
        return;
      }
      for (int i = 0; i < 3; ++i) {
        r.task([&spawn, depth] { spawn(depth + 1); });
      }
    };
    if (r.thread_num() == 0) spawn(0);
    r.barrier();  // drains all tasks; everyone's `spawn` is still alive
  });
  EXPECT_EQ(leaves.load(), 9);
}

TEST(Tasks, ManyProducersManyHelpers) {
  std::atomic<long> sum{0};
  parallel(4, [&](Region& r) {
    for (int i = 0; i < 50; ++i) {
      const long value = r.thread_num() * 100 + i;
      r.task([&sum, value] { sum.fetch_add(value); });
    }
    r.taskwait();
  });
  long expected = 0;
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 50; ++i) expected += t * 100 + i;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(Tasks, WorkDistributesAcrossThreads) {
  // With 64 slow-ish tasks and 4 threads, more than one thread should
  // execute at least one task.
  pml::thread::Mutex mu;
  std::set<std::size_t> executors;  // hashed thread ids
  parallel(4, [&](Region& r) {
    // Every thread produces 16 slow tasks, then hits the barrier (a
    // scheduling point) and helps drain: each producer necessarily finds a
    // nonempty pool, so the work spreads.
    for (int i = 0; i < 16; ++i) {
      r.task([&] {
        volatile long spin = 0;
        for (int k = 0; k < 20000; ++k) spin = spin + 1;
        pml::thread::LockGuard g(mu);
        executors.insert(std::hash<std::thread::id>{}(std::this_thread::get_id()));
      });
    }
    r.barrier();
  });
  EXPECT_GE(executors.size(), 2u);
}

TEST(Tasks, NoTasksMeansNoBlocking) {
  parallel(3, [&](Region& r) {
    r.taskwait();  // must return immediately
    r.barrier();
  });
  SUCCEED();
}

TEST(Tasks, TaskwaitInsideATaskIsRejected) {
  // Team-wide taskwait from inside a task would wait on the calling task
  // itself; the runtime must fail loudly instead of deadlocking.
  std::atomic<bool> threw{false};
  parallel(2, [&](Region& r) {
    if (r.thread_num() == 0) {
      r.task([&] {
        try {
          r.taskwait();
        } catch (const UsageError&) {
          threw = true;
        }
      });
    }
    r.barrier();
  });
  EXPECT_TRUE(threw.load());
}

TEST(Tasks, TryExecuteOneHelpsFromInsideATask) {
  // A task can cooperatively drain other tasks without blocking.
  std::atomic<int> inner_ran{0};
  std::atomic<bool> helped{false};
  parallel(1, [&](Region& r) {  // one thread: the task MUST self-help
    r.task([&] {
      r.task([&] { inner_ran.fetch_add(1); });
      while (r.try_execute_one_task()) {
        helped = true;
      }
    });
    r.barrier();
  });
  EXPECT_EQ(inner_ran.load(), 1);
  EXPECT_TRUE(helped.load());
}

TEST(Tasks, FibonacciTaskTree) {
  // The canonical OpenMP task example, sized small: fib(10) = 55.
  std::atomic<long> result{0};
  parallel(4, [&](Region& r) {
    std::function<void(int, std::atomic<long>*)> fib =
        [&](int n, std::atomic<long>* out) {
          if (n < 2) {
            out->fetch_add(n);
            return;
          }
          r.task([&fib, n, out] { fib(n - 1, out); });
          r.task([&fib, n, out] { fib(n - 2, out); });
        };
    r.single([&] { fib(10, &result); });
    r.barrier();  // all tasks complete here
  });
  EXPECT_EQ(result.load(), 55);
}

}  // namespace
}  // namespace pml::smp
