#include <gtest/gtest.h>

#include <thread>

#include "msg/mailbox.hpp"
#include "msg/sim_network.hpp"
#include "msg/thread_network.hpp"
#include "sim/zoo.hpp"

namespace servet::msg {
namespace {

TEST(Mailbox, PostThenReceive) {
    Mailbox box;
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    box.post(4, payload);
    std::vector<std::uint8_t> out;
    box.receive_from(4, out);
    EXPECT_EQ(out, payload);
    EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, SourceMatchingLeavesOthersQueued) {
    Mailbox box;
    box.post(1, std::vector<std::uint8_t>{11});
    box.post(2, std::vector<std::uint8_t>{22});
    std::vector<std::uint8_t> out;
    box.receive_from(2, out);
    EXPECT_EQ(out[0], 22);
    EXPECT_EQ(box.pending(), 1u);
    box.receive_from(1, out);
    EXPECT_EQ(out[0], 11);
}

TEST(Mailbox, FifoPerSource) {
    Mailbox box;
    box.post(5, std::vector<std::uint8_t>{1});
    box.post(5, std::vector<std::uint8_t>{2});
    std::vector<std::uint8_t> out;
    box.receive_from(5, out);
    EXPECT_EQ(out[0], 1);
    box.receive_from(5, out);
    EXPECT_EQ(out[0], 2);
}

TEST(Mailbox, BlockingReceiveWakesOnPost) {
    Mailbox box;
    std::vector<std::uint8_t> out;
    std::thread receiver([&] { box.receive_from(9, out); });
    box.post(9, std::vector<std::uint8_t>{42});
    receiver.join();
    EXPECT_EQ(out[0], 42);
}

TEST(ThreadNetwork, PingPongLatencyPositive) {
    ThreadNetwork network(2, /*pin=*/false);
    const Seconds latency = network.pingpong_latency({0, 1}, 4 * KiB, 50);
    EXPECT_GT(latency, 0.0);
    EXPECT_LT(latency, 0.1);
}

TEST(ThreadNetwork, LargerMessagesCostMore) {
    ThreadNetwork network(2, /*pin=*/false);
    const Seconds small = network.pingpong_latency({0, 1}, 1 * KiB, 100);
    const Seconds big = network.pingpong_latency({0, 1}, 4 * MiB, 10);
    EXPECT_GT(big, small);
}

TEST(ThreadNetwork, ConcurrentPairsAligned) {
    ThreadNetwork network(4, /*pin=*/false);
    const auto latencies = network.concurrent_latency({{0, 1}, {2, 3}}, 4 * KiB, 30);
    ASSERT_EQ(latencies.size(), 2u);
    EXPECT_GT(latencies[0], 0.0);
    EXPECT_GT(latencies[1], 0.0);
}

TEST(ThreadNetworkDeath, RejectsBadPairs) {
    ThreadNetwork network(2, false);
    EXPECT_DEATH((void)network.pingpong_latency({0, 0}, KiB, 1), "");
    EXPECT_DEATH((void)network.pingpong_latency({0, 5}, KiB, 1), "");
}

TEST(SimNetwork, MatchesInterconnectModel) {
    const sim::MachineSpec spec = [] {
        sim::MachineSpec s = sim::zoo::dunnington();
        s.measurement_jitter = 0.0;
        return s;
    }();
    SimNetwork network(spec);
    sim::InterconnectModel model(spec);
    EXPECT_DOUBLE_EQ(network.pingpong_latency({0, 12}, 32 * KiB, 3),
                     model.latency({0, 12}, 32 * KiB));
}

TEST(SimNetwork, ConcurrentCountsPerLayer) {
    sim::MachineSpec spec = sim::zoo::dunnington();
    spec.measurement_jitter = 0.0;
    SimNetwork network(spec);
    sim::InterconnectModel model(spec);
    // Two inter-processor pairs contend; a shared-L2 pair on its own layer
    // does not feel them.
    const auto latencies =
        network.concurrent_latency({{0, 3}, {6, 9}, {1, 13}}, 32 * KiB, 2);
    EXPECT_DOUBLE_EQ(latencies[0], model.cost({0, 3}, 32 * KiB).concurrent(2));
    EXPECT_DOUBLE_EQ(latencies[2], model.cost({1, 13}, 32 * KiB).concurrent(1));
}

TEST(SimNetwork, JitterAveragesOut) {
    SimNetwork network(sim::zoo::dunnington());  // 2% jitter
    const Seconds a = network.pingpong_latency({0, 1}, 32 * KiB, 200);
    const Seconds b = network.pingpong_latency({0, 1}, 32 * KiB, 200);
    EXPECT_NEAR(a / b, 1.0, 0.02);
}

}  // namespace
}  // namespace servet::msg
