/// \file farm_test.cpp
/// \brief Tests for the dynamic master-worker task farm.

#include "mp/farm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>

#include "core/error.hpp"
#include "mp/mp.hpp"

namespace pml::mp {
namespace {

class FarmSweep : public ::testing::TestWithParam<int> {};

TEST_P(FarmSweep, ResultsArriveInTaskOrder) {
  const int np = GetParam();
  std::atomic<bool> ok{false};
  run(np, [&](Communicator& comm) {
    std::vector<long> tasks(23);
    std::iota(tasks.begin(), tasks.end(), 0);
    const std::function<long(const long&)> square = [](const long& t) {
      return t * t;
    };
    const auto results = task_farm<long, long>(comm, tasks, square);
    if (comm.rank() == 0) {
      bool all = results.size() == tasks.size();
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i] != static_cast<long>(i * i)) all = false;
      }
      ok = all;
    } else {
      EXPECT_TRUE(results.empty());
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST_P(FarmSweep, EveryTaskExecutedExactlyOnce) {
  const int np = GetParam();
  std::atomic<long> executions{0};
  run(np, [&](Communicator& comm) {
    std::vector<long> tasks(40, 1);
    const std::function<long(const long&)> count = [&](const long& t) {
      executions.fetch_add(1);
      return t;
    };
    (void)task_farm<long, long>(comm, tasks, count);
  });
  EXPECT_EQ(executions.load(), 40);
}

INSTANTIATE_TEST_SUITE_P(Ranks, FarmSweep, ::testing::Values(1, 2, 3, 4, 6));

TEST(Farm, StatsAccountForEveryTask) {
  run(4, [](Communicator& comm) {
    std::vector<long> tasks(30, 5);
    FarmStats stats;
    const std::function<long(const long&)> id = [](const long& t) { return t; };
    (void)task_farm<long, long>(comm, tasks, id, 0, &stats);
    if (comm.rank() == 0) {
      ASSERT_EQ(stats.tasks_per_worker.size(), 4u);
      EXPECT_EQ(stats.tasks_per_worker[0], 0);  // the master only coordinates
      EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                                stats.tasks_per_worker.end(), 0L),
                30);
    }
  });
}

TEST(Farm, DemandDrivenBalancesSkewedTasks) {
  // Task costs are wildly skewed; with demand-driven dispatch no worker
  // may end up with everything (the slow worker holds the big task while
  // the others drain the rest).
  run(3, [](Communicator& comm) {
    std::vector<long> tasks(21);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i] = (i == 0) ? 400000 : 2000;  // task 0 is ~200x the others
    }
    FarmStats stats;
    const std::function<long(const long&)> spin = [](const long& cost) {
      volatile long sink = 0;
      for (long k = 0; k < cost; ++k) sink = sink + 1;
      return cost;
    };
    (void)task_farm<long, long>(comm, tasks, spin, 0, &stats);
    if (comm.rank() == 0) {
      // Both workers executed something.
      EXPECT_GT(stats.tasks_per_worker[1], 0);
      EXPECT_GT(stats.tasks_per_worker[2], 0);
    }
  });
}

TEST(Farm, StringTasksAndResults) {
  run(3, [](Communicator& comm) {
    const std::vector<std::string> tasks = {"alpha", "bravo", "charlie", "delta"};
    const std::function<std::string(const std::string&)> shout =
        [](const std::string& s) { return s + "!"; };
    const auto results = task_farm<std::string, std::string>(comm, tasks, shout);
    if (comm.rank() == 0) {
      EXPECT_EQ(results,
                (std::vector<std::string>{"alpha!", "bravo!", "charlie!", "delta!"}));
    }
  });
}

TEST(Farm, EmptyTaskListStopsWorkersCleanly) {
  run(4, [](Communicator& comm) {
    const std::function<long(const long&)> id = [](const long& t) { return t; };
    const auto results = task_farm<long, long>(comm, {}, id);
    if (comm.rank() == 0) {
      EXPECT_TRUE(results.empty());
    }
  });
}

TEST(Farm, FewerTasksThanWorkers) {
  run(6, [](Communicator& comm) {
    const std::vector<long> tasks = {10, 20};
    const std::function<long(const long&)> half = [](const long& t) { return t / 2; };
    const auto results = task_farm<long, long>(comm, tasks, half);
    if (comm.rank() == 0) {
      EXPECT_EQ(results, (std::vector<long>{5, 10}));
    }
  });
}

TEST(Farm, NonzeroRootWorks) {
  run(3, [](Communicator& comm) {
    const std::vector<long> tasks = {1, 2, 3, 4, 5};
    const std::function<long(const long&)> dbl = [](const long& t) { return 2 * t; };
    const auto results = task_farm<long, long>(comm, tasks, dbl, 2);
    if (comm.rank() == 2) {
      EXPECT_EQ(results, (std::vector<long>{2, 4, 6, 8, 10}));
    } else {
      EXPECT_TRUE(results.empty());
    }
  });
}

TEST(Farm, WorkerExceptionAbortsTheJobWithRootCause) {
  EXPECT_THROW(
      run(3,
          [](Communicator& comm) {
            const std::function<long(const long&)> faulty = [](const long& t) {
              if (t == 7) throw UsageError("task 7 is cursed");
              return t;
            };
            std::vector<long> tasks(12);
            std::iota(tasks.begin(), tasks.end(), 0);
            (void)task_farm<long, long>(comm, tasks, faulty);
          }),
      UsageError);
}

TEST(Farm, MissingWorkerRejected) {
  run(1, [](Communicator& comm) {
    EXPECT_THROW((task_farm<long, long>(comm, {1}, nullptr)), UsageError);
  });
}

}  // namespace
}  // namespace pml::mp
