#include "exec/memo_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "base/check.hpp"
#include "base/fs.hpp"
#include "base/text.hpp"
#include "obs/metrics.hpp"

namespace servet::exec {

namespace {
constexpr const char* kHeader = "servet-memo 1";

// Stable: the engine dedups equal keys within a batch, so which lookups
// hit is a function of the task stream, not of scheduling.
obs::Counter& hit_counter() {
    static obs::Counter& c = obs::counter("exec.memo.hits", obs::Stability::Stable);
    return c;
}
obs::Counter& miss_counter() {
    static obs::Counter& c = obs::counter("exec.memo.misses", obs::Stability::Stable);
    return c;
}
obs::Counter& store_counter() {
    static obs::Counter& c = obs::counter("exec.memo.stores", obs::Stability::Stable);
    return c;
}

std::string format_record(const std::string& key, const std::vector<double>& values) {
    std::string line = key + ' ' + std::to_string(values.size());
    for (const double v : values) {
        line += ' ';
        line += format_hexfloat(v);
    }
    line += '\n';
    return line;
}

/// Full write with EINTR retry; short writes continue where they left off.
bool write_all(int fd, const std::string& data) {
    const char* p = data.data();
    std::size_t remaining = data.size();
    while (remaining > 0) {
        const ssize_t n = ::write(fd, p, remaining);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        p += n;
        remaining -= static_cast<std::size_t>(n);
    }
    return true;
}
}  // namespace

MemoCache::~MemoCache() {
    if (journal_fd_ >= 0) ::close(journal_fd_);
}

std::optional<std::vector<double>> MemoCache::lookup(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        miss_counter().increment();
        return std::nullopt;
    }
    ++hits_;
    hit_counter().increment();
    return it->second;
}

void MemoCache::store(const std::string& key, std::vector<double> values) {
    // The file format separates fields with whitespace; a key containing
    // any would corrupt every record after it on reload.
    SERVET_CHECK_MSG(key.find_first_of(" \t\n\r") == std::string::npos,
                     "memo key must not contain whitespace");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = entries_.try_emplace(key, std::move(values));
    if (!fresh) return;
    store_counter().increment();
    journal_append_locked(it->first, it->second);
}

void MemoCache::journal_append_locked(const std::string& key,
                                      const std::vector<double>& values) {
    if (journal_fd_ < 0) return;
    // No fsync: the journal guards against the *process* dying (SIGKILL,
    // OOM), not against power loss — a lost memo line only costs one
    // re-measurement, never correctness, so the cheap write is the right
    // trade inside the measurement hot path.
    if (!write_all(journal_fd_, format_record(key, values))) {
        ::close(journal_fd_);
        journal_fd_ = -1;
    }
}

bool MemoCache::journal_to(const std::string& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (journal_fd_ >= 0) ::close(journal_fd_);
    journal_fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (journal_fd_ < 0) return false;
    struct stat st {};
    if (::fstat(journal_fd_, &st) != 0 ||
        (st.st_size == 0 && !write_all(journal_fd_, std::string(kHeader) + '\n'))) {
        ::close(journal_fd_);
        journal_fd_ = -1;
        return false;
    }
    return true;
}

std::size_t MemoCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::uint64_t MemoCache::hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t MemoCache::misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

MemoLoad MemoCache::load_file(const std::string& path, MemoLoadMode mode) {
    std::string text;
    switch (read_file(path, &text)) {
        case FileRead::Absent:
            return MemoLoad::Absent;
        case FileRead::Error:
            return MemoLoad::Malformed;
        case FileRead::Ok:
            break;
    }
    // Every complete journal append ends in '\n', so an unterminated last
    // line is a torn write — and dangerous: a hexfloat truncated mid-token
    // can still parse as a valid (wrong) shorter number. Cut it off before
    // parsing rather than trusting the line parser to notice.
    if (mode == MemoLoadMode::TornTailOk && !text.empty() && text.back() != '\n')
        text.erase(text.find_last_of('\n') + 1);

    const std::vector<std::string_view> lines = split(text, '\n');
    if (lines.empty() || lines.front() != kHeader) return MemoLoad::Malformed;

    std::map<std::string, std::vector<double>> loaded;
    for (std::size_t l = 1; l < lines.size(); ++l) {
        if (lines[l].empty()) continue;
        // "<key> <count> <value>...": the count must match the values the
        // line actually carries before anything is sized by it.
        const std::vector<std::string_view> fields = split(lines[l], ' ');
        const auto count =
            fields.size() >= 2 ? parse_int<std::size_t>(fields[1]) : std::nullopt;
        bool ok = !fields[0].empty() && count && *count == fields.size() - 2;
        std::vector<double> values;
        if (ok) values.reserve(*count);
        for (std::size_t i = 2; ok && i < fields.size(); ++i) {
            const std::optional<double> v = parse_double(fields[i]);
            ok = v.has_value();
            if (ok) values.push_back(*v);
        }
        if (!ok) {
            if (mode == MemoLoadMode::Strict) return MemoLoad::Malformed;
            break;  // keep the valid prefix; the rest is a crash's tail
        }
        loaded.emplace(std::string(fields[0]), std::move(values));
    }

    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, values] : loaded) entries_.try_emplace(key, std::move(values));
    return MemoLoad::Loaded;
}

bool MemoCache::save_file(const std::string& path) const {
    // Crash-atomic: the content is fsync'd under a temporary sibling name
    // and renamed into place, so readers see either the old file or the
    // complete new one, never a torn write — even across a power loss.
    std::string out = std::string(kHeader) + '\n';
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& [key, values] : entries_) out += format_record(key, values);
    }
    return write_file_atomic(path, out);
}

}  // namespace servet::exec
