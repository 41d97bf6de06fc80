#include "serve/store.hpp"

#include <utility>

#include "base/fs.hpp"
#include "base/text.hpp"
#include "core/profile.hpp"
#include "serve/http.hpp"

namespace servet::serve {

namespace {
std::string cache_key(const std::string& fingerprint, const std::string& options) {
    return fingerprint + '/' + options;
}
}  // namespace

ProfileStore::ProfileStore(std::string root_dir, std::size_t cache_entries)
    : root_(std::move(root_dir)), cache_entries_(cache_entries) {}

bool ProfileStore::valid_key(const std::string& key) {
    if (key.size() != 16) return false;
    for (const char c : key) {
        const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex) return false;
    }
    return true;
}

std::string ProfileStore::profile_path(const std::string& fingerprint,
                                       const std::string& options) const {
    return root_ + '/' + fingerprint + '/' + options + ".profile";
}

std::string ProfileStore::head_path(const std::string& fingerprint) const {
    return root_ + '/' + fingerprint + "/HEAD";
}

void ProfileStore::cache_insert_locked(const std::string& key, const std::string& body) {
    if (cache_entries_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = body;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, body);
    index_[key] = lru_.begin();
    while (lru_.size() > cache_entries_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

ProfileStore::PutStatus ProfileStore::put(const std::string& fingerprint,
                                          const std::string& options,
                                          const std::string& body,
                                          const std::string* if_match) {
    if (!valid_key(fingerprint) || !valid_key(options)) return PutStatus::InvalidKey;
    if (!core::Profile::parse(body)) return PutStatus::InvalidProfile;

    std::lock_guard<std::mutex> put_lock(put_mutex_);
    if (if_match != nullptr) {
        // Compare-and-swap: the precondition names the HEAD the caller
        // read. "*" means "some HEAD must exist". Evaluated under the
        // put lock, so no concurrent put can slip between check & write.
        const auto current = head(fingerprint);
        const bool holds =
            current ? etag_list_matches(*if_match, *current)
                    : false;
        if (!holds) return PutStatus::CasMismatch;
    }

    const std::string path = profile_path(fingerprint, options);
    if (!create_parent_dirs(path)) return PutStatus::IoError;
    // The profile must be durable before HEAD names it: a crash between
    // the two writes leaves the previous HEAD pointing at its previous
    // (still complete) profile.
    if (!write_file_atomic(path, body)) return PutStatus::IoError;
    if (!write_file_atomic(head_path(fingerprint), options + '\n'))
        return PutStatus::IoError;

    std::lock_guard<std::mutex> lock(mutex_);
    cache_insert_locked(cache_key(fingerprint, options), body);
    heads_[fingerprint] = options;
    ++stats_.puts;
    return PutStatus::Stored;
}

std::optional<std::string> ProfileStore::get(const std::string& fingerprint,
                                             const std::string& options) {
    if (!valid_key(fingerprint) || !valid_key(options)) return std::nullopt;
    const std::string key = cache_key(fingerprint, options);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it != index_.end()) {
            ++stats_.cache_hits;
            lru_.splice(lru_.begin(), lru_, it->second);
            return it->second->second;
        }
        ++stats_.cache_misses;
    }
    std::string body;
    if (read_file(profile_path(fingerprint, options), &body) != FileRead::Ok)
        return std::nullopt;
    std::lock_guard<std::mutex> lock(mutex_);
    cache_insert_locked(key, body);
    return body;
}

std::optional<std::string> ProfileStore::head(const std::string& fingerprint) {
    if (!valid_key(fingerprint)) return std::nullopt;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = heads_.find(fingerprint);
        if (it != heads_.end()) return it->second;
    }
    std::string raw;
    if (read_file(head_path(fingerprint), &raw) != FileRead::Ok) return std::nullopt;
    const std::string text(trim(raw));
    if (!valid_key(text)) return std::nullopt;  // corrupt HEAD: treat as absent
    std::lock_guard<std::mutex> lock(mutex_);
    heads_[fingerprint] = text;
    return text;
}

bool ProfileStore::valid_tick(const std::string& tick) {
    if (tick.empty() || tick.size() > 10) return false;
    for (const char c : tick)
        if (c < '0' || c > '9') return false;
    return true;
}

namespace {
/// The watch sample codec's line grammar: every non-empty line is
/// "metric <name> <value>". Enough validation to keep arbitrary bytes
/// out of the store without serve depending on the watch layer.
bool valid_sample_body(const std::string& body) {
    if (body.empty() || body.size() > 1024 * 1024) return false;
    std::size_t pos = 0;
    bool any = false;
    while (pos < body.size()) {
        const std::size_t end = std::min(body.find('\n', pos), body.size());
        const std::string_view line(body.data() + pos, end - pos);
        pos = end + 1;
        if (line.empty()) continue;
        if (!line.starts_with("metric ") || line.size() <= 7) return false;
        any = true;
    }
    return any;
}

std::string sample_path(const std::string& root, const std::string& fingerprint,
                        const std::string& options, const std::string& tick) {
    return root + '/' + fingerprint + "/series-" + options + '/' + tick + ".sample";
}
}  // namespace

ProfileStore::PutStatus ProfileStore::put_sample(const std::string& fingerprint,
                                                 const std::string& options,
                                                 const std::string& tick,
                                                 const std::string& body) {
    if (!valid_key(fingerprint) || !valid_key(options) || !valid_tick(tick))
        return PutStatus::InvalidKey;
    if (!valid_sample_body(body)) return PutStatus::InvalidProfile;
    const std::string path = sample_path(root_, fingerprint, options, tick);
    if (!create_parent_dirs(path)) return PutStatus::IoError;
    if (!write_file_atomic(path, body)) return PutStatus::IoError;
    return PutStatus::Stored;
}

std::optional<std::string> ProfileStore::get_sample(const std::string& fingerprint,
                                                    const std::string& options,
                                                    const std::string& tick) {
    if (!valid_key(fingerprint) || !valid_key(options) || !valid_tick(tick))
        return std::nullopt;
    std::string body;
    if (read_file(sample_path(root_, fingerprint, options, tick), &body) != FileRead::Ok)
        return std::nullopt;
    return body;
}

StoreStats ProfileStore::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace servet::serve
