#include "obs/trace.hpp"

#include <cstdio>
#include <cstring>

#include "base/clock.hpp"
#include "base/fs.hpp"
#include "base/log.hpp"

namespace servet::obs {

void Tracer::set_thread_capacity(std::size_t events) {
    thread_capacity_.store(events == 0 ? 1 : events, std::memory_order_relaxed);
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
    thread_local ThreadBuffer* local = nullptr;
    if (local == nullptr) {
        auto buffer =
            std::make_unique<ThreadBuffer>(thread_capacity_.load(std::memory_order_relaxed));
        local = buffer.get();
        const std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::move(buffer));
    }
    return *local;
}

std::vector<SpanEvent> Tracer::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanEvent> out;
    for (const auto& buffer : buffers_) {
        const std::size_t n = buffer->count.load(std::memory_order_acquire);
        out.insert(out.end(), buffer->events.begin(),
                   buffer->events.begin() + static_cast<std::ptrdiff_t>(n));
    }
    return out;
}

std::string Tracer::chrome_trace_json() const {
    const std::vector<SpanEvent> events = snapshot();
    std::string out = "{\"traceEvents\": [";
    char line[256];
    for (std::size_t i = 0; i < events.size(); ++i) {
        const SpanEvent& e = events[i];
        std::snprintf(line, sizeof line,
                      "%s\n  {\"name\": \"%s\", \"cat\": \"servet\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d}",
                      i ? "," : "", e.name, static_cast<double>(e.start_ns) / 1000.0,
                      static_cast<double>(e.end_ns - e.start_ns) / 1000.0,
                      static_cast<int>(e.tid));
        out += line;
    }
    out += events.empty() ? "]" : "\n]";
    // droppedEvents in the footer makes a truncated trace self-describing:
    // a viewer (or a test) can tell "complete" from "buffers overflowed"
    // without access to the producing process.
    std::snprintf(line, sizeof line, ", \"droppedEvents\": %llu",
                  static_cast<unsigned long long>(dropped()));
    out += line;
    out += ", \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
    const std::uint64_t lost = dropped();
    if (lost > 0)
        SERVET_LOG_WARN("trace: %llu span(s) dropped on full thread buffers; the "
                        "export at %s is truncated (raise Tracer::set_thread_capacity)",
                        static_cast<unsigned long long>(lost), path.c_str());
    return write_file_atomic(path, chrome_trace_json());
}

void Tracer::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) buffer->count.store(0, std::memory_order_release);
    dropped_.store(0, std::memory_order_relaxed);
}

Tracer& tracer() {
    static Tracer* instance = new Tracer();  // never destroyed: worker threads may outlive main
    return *instance;
}

TraceSpan::TraceSpan(const char* name) {
    Tracer& t = tracer();
    if (!t.enabled()) return;
    buffer_ = &t.local_buffer();
    depth_ = buffer_->depth++;
    std::strncpy(name_, name, sizeof name_ - 1);
    name_[sizeof name_ - 1] = '\0';
    start_ns_ = monotonic_ns();
}

TraceSpan::~TraceSpan() {
    if (buffer_ == nullptr) return;
    --buffer_->depth;
    // Owner thread is the only writer of count: the relaxed read cannot
    // race; the release store publishes the event to snapshotters.
    const std::size_t index = buffer_->count.load(std::memory_order_relaxed);
    if (index >= buffer_->events.size()) {
        tracer().count_drop();
        return;
    }
    SpanEvent& event = buffer_->events[index];
    std::memcpy(event.name, name_, sizeof event.name);
    event.start_ns = start_ns_;
    event.end_ns = monotonic_ns();
    event.tid = thread_ordinal();
    event.depth = depth_;
    buffer_->count.store(index + 1, std::memory_order_release);
}

}  // namespace servet::obs
