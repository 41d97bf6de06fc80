#include "accounting.hpp"

#include <algorithm>
#include <map>

#include "base/clock.hpp"

namespace bench {

using servet::monotonic_ns;
using servet::obs::SpanEvent;

namespace {

/// A span's family is its name up to the second '/' ("sim/traverse",
/// "bench/watch"), or up to the first for the families whose second part
/// is a key ("measure/<task>", "phase/<name>", "dag/<node>").
std::string span_family(const std::string& name) {
    const std::size_t first = name.find('/');
    if (first == std::string::npos) return name;
    const std::string head = name.substr(0, first);
    if (head == "measure" || head == "phase" || head == "dag") return head;
    return name.substr(0, name.find('/', first + 1));
}

}  // namespace

SpanTotals& SpanTotals::operator+=(const SpanTotals& other) {
    for (const auto& [family, ns] : other.self_ns) self_ns[family] += ns;
    thread_ns += other.thread_ns;
    return *this;
}

SpanTotals span_totals(const std::vector<SpanEvent>& events) {
    std::map<std::int32_t, std::vector<const SpanEvent*>> by_thread;
    for (const SpanEvent& event : events) by_thread[event.tid].push_back(&event);

    SpanTotals totals;
    for (auto& [tid, spans] : by_thread) {
        // Parents before the children they enclose: earlier start first,
        // and on a tie the outer (shallower) span.
        std::sort(spans.begin(), spans.end(), [](const SpanEvent* a, const SpanEvent* b) {
            return a->start_ns != b->start_ns ? a->start_ns < b->start_ns : a->depth < b->depth;
        });
        struct Open {
            std::uint64_t end_ns;
            std::string family;
        };
        std::vector<Open> open;
        for (const SpanEvent* span : spans) {
            while (!open.empty() && open.back().end_ns <= span->start_ns) open.pop_back();
            const std::uint64_t duration = span->end_ns - span->start_ns;
            // A span whose parent was not recorded (tracing switched on
            // mid-parent) counts as outermost: stack position, not the
            // recorded depth, decides.
            if (open.empty())
                totals.thread_ns += duration;
            else
                totals.self_ns[open.back().family] -= duration;
            const std::string family = span_family(span->name);
            totals.self_ns[family] += duration;
            open.push_back({span->end_ns, family});
        }
    }
    return totals;
}

void ForkClock::drain_into(ForkTotals& totals) {
    totals.platform_ns += platform_ns_.exchange(0, std::memory_order_relaxed);
    totals.platform_calls += platform_calls_.exchange(0, std::memory_order_relaxed);
    totals.network_ns += network_ns_.exchange(0, std::memory_order_relaxed);
    totals.network_calls += network_calls_.exchange(0, std::memory_order_relaxed);
}

std::unique_ptr<servet::Platform> ForkTimedPlatform::fork(std::uint64_t noise_salt,
                                                          std::uint64_t placement_salt) const {
    const std::uint64_t start = monotonic_ns();
    std::unique_ptr<servet::Platform> replica = inner_->fork(noise_salt, placement_salt);
    clock_.add_platform(monotonic_ns() - start);
    return replica;
}

std::unique_ptr<servet::msg::Network> ForkTimedNetwork::fork(std::uint64_t noise_salt) const {
    const std::uint64_t start = monotonic_ns();
    std::unique_ptr<servet::msg::Network> replica = inner_->fork(noise_salt);
    clock_.add_network(monotonic_ns() - start);
    return replica;
}

}  // namespace bench
