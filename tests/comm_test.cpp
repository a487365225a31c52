// Tests for the MlComm thread-rank communicator: correctness of
// broadcast / allreduce across rank counts and algorithms, determinism,
// straggler tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "comm/mlcomm.hpp"
#include "runtime/rng.hpp"

namespace cf::comm {
namespace {

std::vector<std::vector<float>> make_rank_data(int nranks, std::size_t n,
                                               std::uint64_t seed) {
  std::vector<std::vector<float>> data(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    runtime::Rng rng(seed, static_cast<std::uint64_t>(r));
    auto& v = data[static_cast<std::size_t>(r)];
    v.resize(n);
    for (auto& x : v) x = rng.normal();
  }
  return data;
}

std::vector<float> expected_average(
    const std::vector<std::vector<float>>& data) {
  std::vector<float> avg(data[0].size(), 0.0f);
  for (const auto& v : data) {
    for (std::size_t i = 0; i < v.size(); ++i) avg[i] += v[i];
  }
  for (auto& x : avg) x /= static_cast<float>(data.size());
  return avg;
}

struct CommCase {
  int nranks;
  std::size_t n;
  AllreduceAlgorithm algorithm;
};

class AllreduceCorrectness : public ::testing::TestWithParam<CommCase> {};

TEST_P(AllreduceCorrectness, AveragesAcrossRanks) {
  const CommCase& c = GetParam();
  MlCommConfig config;
  config.algorithm = c.algorithm;
  config.chunk_elems = 64;  // force multi-chunk processing
  MlComm comm(c.nranks, config);

  auto data = make_rank_data(c.nranks, c.n, 3);
  const auto expected = expected_average(data);

  comm.run([&](RankHandle& rank) {
    rank.allreduce_average(data[static_cast<std::size_t>(rank.rank())]);
  });

  for (int r = 0; r < c.nranks; ++r) {
    const auto& v = data[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_NEAR(v[i], expected[i], 1e-5f)
          << "rank " << r << " element " << i;
    }
  }
}

// gtest names each case after the raw bytes of its CommCase, padding
// included. A static array's padding is zero, so the names are the same
// in every process; cases built as temporaries carried stack garbage.
constexpr CommCase kCommCases[] = {
    {1, 100, AllreduceAlgorithm::kReduceScatter},
    {2, 1000, AllreduceAlgorithm::kReduceScatter},
    {4, 1000, AllreduceAlgorithm::kReduceScatter},
    {8, 257, AllreduceAlgorithm::kReduceScatter},
    {3, 7, AllreduceAlgorithm::kReduceScatter},  // n < chunk
    {5, 3, AllreduceAlgorithm::kReduceScatter},  // n < nranks
    {2, 1000, AllreduceAlgorithm::kCentralRoot},
    {7, 513, AllreduceAlgorithm::kCentralRoot}};

INSTANTIATE_TEST_SUITE_P(Sweep, AllreduceCorrectness,
                         ::testing::ValuesIn(kCommCases));

TEST(MlComm, AllreduceIsBitwiseDeterministic) {
  const int nranks = 4;
  const std::size_t n = 4096;
  std::vector<std::vector<float>> first;
  for (int repeat = 0; repeat < 2; ++repeat) {
    MlComm comm(nranks, MlCommConfig{});
    auto data = make_rank_data(nranks, n, 11);
    comm.run([&](RankHandle& rank) {
      rank.allreduce_average(data[static_cast<std::size_t>(rank.rank())]);
    });
    if (repeat == 0) {
      first = data;
    } else {
      for (int r = 0; r < nranks; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(data[static_cast<std::size_t>(r)][i],
                    first[static_cast<std::size_t>(r)][i]);
        }
      }
    }
  }
}

TEST(MlComm, AllRanksSeeIdenticalResult) {
  // Data-parallel SSGD correctness hinges on every replica applying
  // bit-identical averaged gradients.
  const int nranks = 6;
  MlComm comm(nranks, MlCommConfig{});
  auto data = make_rank_data(nranks, 999, 13);
  comm.run([&](RankHandle& rank) {
    rank.allreduce_average(data[static_cast<std::size_t>(rank.rank())]);
  });
  for (int r = 1; r < nranks; ++r) {
    for (std::size_t i = 0; i < 999; ++i) {
      ASSERT_EQ(data[static_cast<std::size_t>(r)][i], data[0][i]);
    }
  }
}

TEST(MlComm, BroadcastCopiesRootModel) {
  const int nranks = 5;
  MlComm comm(nranks, MlCommConfig{});
  auto data = make_rank_data(nranks, 321, 17);
  const auto root_copy = data[2];
  comm.run([&](RankHandle& rank) {
    rank.broadcast(data[static_cast<std::size_t>(rank.rank())], /*root=*/2);
  });
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t i = 0; i < root_copy.size(); ++i) {
      ASSERT_EQ(data[static_cast<std::size_t>(r)][i], root_copy[i]);
    }
  }
}

TEST(MlComm, ScalarAverage) {
  const int nranks = 4;
  MlComm comm(nranks, MlCommConfig{});
  std::vector<double> results(nranks);
  comm.run([&](RankHandle& rank) {
    results[static_cast<std::size_t>(rank.rank())] =
        rank.allreduce_average_scalar(rank.rank() + 1.0);
  });
  for (const double r : results) EXPECT_DOUBLE_EQ(r, 2.5);  // (1+2+3+4)/4
}

TEST(MlComm, SequentialCollectivesDoNotInterfere) {
  const int nranks = 3;
  MlComm comm(nranks, MlCommConfig{});
  auto a = make_rank_data(nranks, 50, 19);
  auto b = make_rank_data(nranks, 75, 23);
  const auto ea = expected_average(a);
  const auto eb = expected_average(b);
  comm.run([&](RankHandle& rank) {
    const auto r = static_cast<std::size_t>(rank.rank());
    rank.allreduce_average(a[r]);
    rank.barrier();
    rank.allreduce_average(b[r]);
  });
  for (std::size_t i = 0; i < 50; ++i) ASSERT_NEAR(a[0][i], ea[i], 1e-5f);
  for (std::size_t i = 0; i < 75; ++i) ASSERT_NEAR(b[0][i], eb[i], 1e-5f);
}

TEST(MlComm, ToleratesStragglers) {
  // A deliberately slow rank must not corrupt the reduction (the
  // barrier-structured algorithm hides the imbalance, §III-D).
  const int nranks = 4;
  MlCommConfig config;
  config.pre_reduce_hook = [](int rank) {
    if (rank == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };
  MlComm comm(nranks, config);
  auto data = make_rank_data(nranks, 128, 29);
  const auto expected = expected_average(data);
  comm.run([&](RankHandle& rank) {
    rank.allreduce_average(data[static_cast<std::size_t>(rank.rank())]);
  });
  for (std::size_t i = 0; i < 128; ++i) {
    ASSERT_NEAR(data[0][i], expected[i], 1e-5f);
  }
}

TEST(MlComm, TracksCommTime) {
  MlComm comm(2, MlCommConfig{});
  auto data = make_rank_data(2, 1 << 16, 31);
  comm.run([&](RankHandle& rank) {
    rank.allreduce_average(data[static_cast<std::size_t>(rank.rank())]);
  });
  EXPECT_EQ(comm.handle(0).comm_time().count(), 1u);
  EXPECT_GT(comm.handle(0).comm_time().total(), 0.0);
  comm.handle(0).reset_comm_time();
  EXPECT_EQ(comm.handle(0).comm_time().count(), 0u);
}

// Each communicator owns its ranks' stats: building and using a second
// one with the same rank count leaves the first's figures alone.
TEST(MlComm, TwoCommunicatorsKeepTheirOwnStats) {
  const int nranks = 2;
  auto data = make_rank_data(nranks, 256, 53);
  MlComm first(nranks, MlCommConfig{});
  first.run([&](RankHandle& rank) {
    rank.allreduce_average(data[static_cast<std::size_t>(rank.rank())]);
  });
  ASSERT_EQ(first.handle(0).comm_time().count(), 1u);

  MlComm second(nranks, MlCommConfig{});
  EXPECT_EQ(first.handle(0).comm_time().count(), 1u);
  second.run([&](RankHandle& rank) {
    auto& v = data[static_cast<std::size_t>(rank.rank())];
    rank.allreduce_average(v);
    PendingReduce pending = rank.allreduce_average_async(v);
    rank.wait(pending);
  });
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(first.handle(r).comm_time().count(), 1u) << "rank " << r;
    EXPECT_EQ(first.handle(r).exposed_comm_time().count(), 0u);
    EXPECT_EQ(first.handle(r).hidden_comm_time().count(), 0u);
    EXPECT_EQ(second.handle(r).comm_time().count(), 2u) << "rank " << r;
    EXPECT_EQ(second.handle(r).exposed_comm_time().count(), 1u);
    EXPECT_EQ(second.handle(r).hidden_comm_time().count(), 1u);
  }
}

TEST(MlComm, RejectsBadConfiguration) {
  EXPECT_THROW(MlComm(0, MlCommConfig{}), std::invalid_argument);
  MlCommConfig bad;
  bad.chunk_elems = 0;
  EXPECT_THROW(MlComm(2, bad), std::invalid_argument);
  MlComm comm(2, MlCommConfig{});
  EXPECT_THROW(comm.handle(5), std::out_of_range);
}

TEST(MlComm, MismatchedBufferSizesThrow) {
  MlComm comm(2, MlCommConfig{});
  EXPECT_THROW(comm.run([&](RankHandle& rank) {
                 std::vector<float> v(rank.rank() == 0 ? 10 : 20, 1.0f);
                 rank.allreduce_average(v);
               }),
               std::invalid_argument);
}

TEST(MlComm, RunPropagatesRankExceptions) {
  MlComm comm(2, MlCommConfig{});
  EXPECT_THROW(comm.run([&](RankHandle& rank) {
                 if (rank.rank() == 1) throw std::runtime_error("rank died");
                 // Rank 0 does no collective, so no deadlock.
               }),
               std::runtime_error);
}

// --- nonblocking bucketed allreduce (helper thread) -----------------

TEST(MlCommAsync, SingleBucketAveragesAcrossRanks) {
  for (const int nranks : {1, 4}) {
    MlCommConfig config;
    config.chunk_elems = 64;
    MlComm comm(nranks, config);
    auto data = make_rank_data(nranks, 500, 37);
    const auto expected = expected_average(data);
    comm.run([&](RankHandle& rank) {
      PendingReduce pending = rank.allreduce_average_async(
          data[static_cast<std::size_t>(rank.rank())]);
      EXPECT_TRUE(pending.valid());
      rank.wait(pending);
      EXPECT_FALSE(pending.valid());
    });
    for (int r = 0; r < nranks; ++r) {
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i],
                    1e-5f)
            << "nranks " << nranks << " rank " << r << " element " << i;
      }
    }
  }
}

TEST(MlCommAsync, BitwiseMatchesSyncRegardlessOfBucketing) {
  // The acceptance property of the overlapped path: splitting a vector
  // into async buckets — any split — averages bitwise identically to
  // one synchronous allreduce over the whole vector.
  const std::size_t n = 2048;
  for (const int nranks : {1, 4}) {
    auto reference = make_rank_data(nranks, n, 41);
    {
      MlCommConfig config;
      config.chunk_elems = 64;
      MlComm comm(nranks, config);
      comm.run([&](RankHandle& rank) {
        rank.allreduce_average(
            reference[static_cast<std::size_t>(rank.rank())]);
      });
    }
    // Uneven bucket sizes, including a 1-element and a large tail.
    for (const std::size_t bucket : {std::size_t{1}, std::size_t{7},
                                     std::size_t{500}, n}) {
      auto data = make_rank_data(nranks, n, 41);
      MlCommConfig config;
      config.chunk_elems = 64;
      MlComm comm(nranks, config);
      comm.run([&](RankHandle& rank) {
        auto& v = data[static_cast<std::size_t>(rank.rank())];
        std::vector<PendingReduce> pending;
        for (std::size_t begin = 0; begin < n; begin += bucket) {
          const std::size_t len = std::min(bucket, n - begin);
          pending.push_back(rank.allreduce_average_async(
              std::span<float>(v).subspan(begin, len)));
        }
        for (PendingReduce& p : pending) rank.wait(p);
      });
      for (int r = 0; r < nranks; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(data[static_cast<std::size_t>(r)][i],
                    reference[static_cast<std::size_t>(r)][i])
              << "nranks " << nranks << " bucket " << bucket
              << " rank " << r << " element " << i;
        }
      }
    }
  }
}

TEST(MlCommAsync, ToleratesStragglers) {
  const int nranks = 4;
  MlCommConfig config;
  config.pre_reduce_hook = [](int rank) {
    if (rank == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };
  MlComm comm(nranks, config);
  auto data = make_rank_data(nranks, 128, 43);
  const auto expected = expected_average(data);
  comm.run([&](RankHandle& rank) {
    PendingReduce pending = rank.allreduce_average_async(
        data[static_cast<std::size_t>(rank.rank())]);
    rank.wait(pending);
  });
  for (std::size_t i = 0; i < 128; ++i) {
    ASSERT_NEAR(data[0][i], expected[i], 1e-5f);
  }
}

TEST(MlCommAsync, RecordsHiddenExposedSplitAndBucketCount) {
  const int nranks = 2;
  const std::size_t n = 600;
  MlComm comm(nranks, MlCommConfig{});
  auto data = make_rank_data(nranks, n, 47);
  comm.run([&](RankHandle& rank) {
    auto& v = data[static_cast<std::size_t>(rank.rank())];
    std::vector<PendingReduce> pending;
    for (std::size_t begin = 0; begin < n; begin += 200) {
      pending.push_back(rank.allreduce_average_async(
          std::span<float>(v).subspan(begin, 200)));
    }
    for (PendingReduce& p : pending) rank.wait(p);
  });
  for (int r = 0; r < nranks; ++r) {
    // One exposed and one hidden observation per bucket wait, so the
    // exposed count is the bucket count.
    EXPECT_EQ(comm.handle(r).exposed_comm_time().count(), 3u);
    EXPECT_EQ(comm.handle(r).hidden_comm_time().count(), 3u);
    // Exposed wait time is critical-path comm time.
    EXPECT_EQ(comm.handle(r).comm_time().count(), 3u);
  }
}

TEST(MlCommAsync, MismatchedBucketSizesThrow) {
  MlComm comm(2, MlCommConfig{});
  EXPECT_THROW(comm.run([&](RankHandle& rank) {
                 std::vector<float> v(rank.rank() == 0 ? 10 : 20, 1.0f);
                 PendingReduce pending = rank.allreduce_average_async(v);
                 rank.wait(pending);
               }),
               std::invalid_argument);
}

TEST(MlCommAsync, WaitOnInvalidTicketThrows) {
  MlComm comm(1, MlCommConfig{});
  comm.run([&](RankHandle& rank) {
    PendingReduce never_posted;
    EXPECT_THROW(rank.wait(never_posted), std::logic_error);
    // Waiting twice on the same ticket is also a misuse.
    std::vector<float> v(16, 1.0f);
    PendingReduce pending = rank.allreduce_average_async(v);
    rank.wait(pending);
    EXPECT_THROW(rank.wait(pending), std::logic_error);
  });
}

}  // namespace
}  // namespace cf::comm
