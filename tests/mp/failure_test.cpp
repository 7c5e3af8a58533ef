/// \file failure_test.cpp
/// \brief Failure-injection tests: deadlock detection, rank crashes, and
/// runtime shutdown behavior.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "core/error.hpp"
#include "fault/fault.hpp"
#include "mp/mp.hpp"

namespace pml::mp {
namespace {

TEST(Deadlock, RecvForExpiresInsteadOfHangingForever) {
  // Both ranks receive first — the classic cycle. recv_for turns the hang
  // into an observable timeout (the sendrecvDeadlock patternlet's trick).
  std::atomic<int> timeouts{0};
  run(2, [&](Communicator& comm) {
    const int partner = 1 - comm.rank();
    const auto got = comm.recv_for<int>(std::chrono::milliseconds(100), partner);
    if (!got) ++timeouts;
  });
  EXPECT_EQ(timeouts.load(), 2);
}

TEST(Deadlock, SendrecvBreaksTheCycle) {
  std::atomic<int> ok{0};
  run(2, [&](Communicator& comm) {
    const int partner = 1 - comm.rank();
    if (comm.sendrecv<int>(comm.rank(), partner, partner) == partner) ++ok;
  });
  EXPECT_EQ(ok.load(), 2);
}

TEST(Crash, RankExceptionPropagatesToCaller) {
  EXPECT_THROW(run(3,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) throw UsageError("rank 1 exploded");
                   }),
               UsageError);
}

TEST(Crash, BlockedPeersAreWokenNotHung) {
  // Rank 1 dies while rank 0 waits for a message that will never come.
  // The runtime must poison the mailboxes so rank 0 aborts too — the whole
  // call returns (with the root-cause exception) instead of deadlocking.
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) throw UsageError("dead before send");
                     (void)comm.recv<int>(1);  // would block forever
                   }),
               UsageError);
}

TEST(Crash, PeerBlockedInCollectiveIsWoken) {
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     if (comm.rank() == 3) throw RuntimeFault("no barrier for me");
                     comm.barrier();
                   }),
               RuntimeFault);
}

TEST(Crash, PeerBlockedInSsendIsWoken) {
  // Rank 0 ssends to rank 1, which dies without receiving: the ack never
  // comes, but shutdown must release the sender.
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) throw UsageError("receiver died");
                     comm.ssend(1, 1);
                   }),
               UsageError);
}

// Root-cause order when an injected node crash meets other failures. Both
// jobs run on two nodes with round-robin placement: node-02 hosts ranks 1
// and 3. The failure picked by class sits at a higher rank than the one
// rank order would pick, so the two rules cannot agree by accident.

TEST(Crash, ProgramErrorOutranksAnInjectedNodeCrash) {
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-02@0")};
  RunOptions opts;
  opts.cluster = Cluster(2, 4, Placement::kRoundRobin);
  EXPECT_THROW(run(
                   4,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) comm.send(1, 0, 7);  // dies here
                     if (comm.rank() == 2) throw UsageError("program error");
                   },
                   opts),
               UsageError);
  EXPECT_EQ(fault::crashed_ranks(), std::vector<int>{1});
}

TEST(Crash, NodeCrashOutranksThePoisonedPeersShutdownFault) {
  // Rank 1 blocks in a receive on the crashing node; rank 3's second send
  // spends its one-checkpoint allowance and takes node-02 down, which wakes
  // rank 1 with the secondary "runtime shut down" RuntimeFault.
  fault::FaultScope faults{fault::FaultPlan::parse("crash:node-02@1")};
  RunOptions opts;
  opts.cluster = Cluster(2, 4, Placement::kRoundRobin);
  EXPECT_THROW(run(
                   4,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) (void)comm.recv<int>(0, 9);  // never sent
                     if (comm.rank() == 3) {
                       comm.send(1, 0, 7);
                       comm.send(2, 0, 7);  // dies here
                     }
                   },
                   opts),
               fault::NodeCrashFault);
  EXPECT_EQ(fault::crashed_ranks(), std::vector<int>{3});
}

TEST(Validation, CollectiveArgumentsChecked) {
  run(2, [](Communicator& comm) {
    EXPECT_THROW((void)comm.broadcast(1, 5), UsageError);
    EXPECT_THROW((void)comm.reduce(1, op_sum<int>(), -1), UsageError);
    std::vector<int> wrong_size(3);
    if (comm.rank() == 0) {
      EXPECT_THROW((void)comm.scatter(wrong_size, 2, 0), UsageError);
    }
    std::vector<std::vector<int>> too_few(1);
    EXPECT_THROW((void)comm.alltoall(too_few), UsageError);
    comm.barrier();
  });
}

TEST(Validation, VectorReduceLengthMismatchFails) {
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     const std::vector<int> mine(
                         static_cast<std::size_t>(comm.rank() + 1), 1);
                     (void)comm.reduce(mine, op_sum<int>(), 0);
                   }),
               UsageError);
}

}  // namespace
}  // namespace pml::mp
