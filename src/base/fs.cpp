#include "base/fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace servet {

namespace {

/// fsync the directory containing `path`, so the rename that just landed
/// there survives a power loss. Best-effort: some filesystems refuse
/// directory fsync, and the file-level fsync already happened.
void fsync_parent_dir(const std::string& path) {
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    (void)::fsync(fd);
    ::close(fd);
}

}  // namespace

bool create_directories(const std::string& path) {
    if (path.empty()) return false;
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) return false;
    return std::filesystem::is_directory(path, ec);
}

bool create_parent_dirs(const std::string& path) {
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (parent.empty()) return true;
    return create_directories(parent.string());
}

bool write_all(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
        const ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

bool append_synced(const std::string& path, std::string_view bytes, bool create) {
    const int flags = O_WRONLY | O_APPEND | O_CLOEXEC | (create ? O_CREAT : 0);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return false;
    const bool synced = write_all(fd, bytes) && ::fsync(fd) == 0;
    ::close(fd);
    return synced;
}

bool write_file_atomic(const std::string& path, std::string_view content) {
    // The temp name must be unique per writer: a fixed `path + ".tmp"`
    // lets two concurrent writers open the same temp file and publish a
    // mix of both contents through the rename. pid + a process-local
    // counter disambiguates across processes and across threads, and
    // O_EXCL turns any residual collision into a retry instead of a
    // silent shared file.
    static std::atomic<unsigned long> tmp_serial{0};
    std::string tmp;
    int fd = -1;
    for (int attempt = 0; attempt < 16 && fd < 0; ++attempt) {
        tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
              std::to_string(tmp_serial.fetch_add(1, std::memory_order_relaxed));
        fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd < 0 && errno != EEXIST) return false;
    }
    if (fd < 0) return false;

    if (!write_all(fd, content)) {
        ::close(fd);
        std::remove(tmp.c_str());
        return false;
    }
    // The rename must not outrun the data: fsync before the new name can
    // point at the new content, or a crash could expose an empty file
    // under the final path.
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    fsync_parent_dir(path);
    return true;
}

FileRead read_file(const std::string& path, std::string* out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return errno == ENOENT ? FileRead::Absent : FileRead::Error;
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return FileRead::Error;
    *out = buffer.str();
    return FileRead::Ok;
}

bool list_directory(const std::string& dir, std::vector<std::string>* names) {
    names->clear();
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) {
        if (ec == std::errc::no_such_file_or_directory) return true;
        return false;
    }
    for (const auto& entry : it) {
        std::error_code type_ec;
        if (entry.is_regular_file(type_ec)) names->push_back(entry.path().filename().string());
    }
    std::sort(names->begin(), names->end());
    return true;
}

bool remove_file(const std::string& path) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return !ec;
}

}  // namespace servet
