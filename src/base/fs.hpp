// Crash-safe filesystem primitives shared by everything that persists
// state (profiles, measurement memos, the run journal). The invariant all
// of them need is the same: a reader must see either the old complete
// file or the new complete file, never a torn write — so whole-file saves
// go through write_file_atomic (tmp sibling + fsync + rename + directory
// fsync), and growing files append through append_synced, or through
// write_all on a descriptor their owner keeps open.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace servet {

/// mkdir -p. Returns true when the directory exists on return (already
/// present counts as success).
[[nodiscard]] bool create_directories(const std::string& path);

/// Creates the directory that will contain `path`. A bare filename has no
/// parent to create and trivially succeeds.
[[nodiscard]] bool create_parent_dirs(const std::string& path);

/// Crash-atomic whole-file write: `content` lands in a uniquely named
/// temporary sibling (pid + counter, opened O_EXCL so concurrent writers
/// to the same path never share a temp file), is flushed to disk (fsync),
/// renamed over `path` (atomic within a directory per POSIX), and the
/// directory entry itself is fsync'd. A crash at any point leaves either
/// the previous file or the new one; concurrent writers leave exactly one
/// writer's complete content. Returns false on any I/O failure, with the
/// temporary removed.
[[nodiscard]] bool write_file_atomic(const std::string& path, std::string_view content);

/// Writes all of `bytes` to `fd`: retries on EINTR and continues after a
/// short write. False on any other write error.
[[nodiscard]] bool write_all(int fd, std::string_view bytes);

/// Appends `bytes` to `path` and fsyncs them; once this returns true they
/// survive a crash. With `create`, an absent file is created (mode 0644);
/// without it, an absent file fails the append — a journal whose file
/// vanished must not restart as a headerless file.
[[nodiscard]] bool append_synced(const std::string& path, std::string_view bytes, bool create);

/// Outcome of read_file: distinguishes "nothing there" (routine — first
/// run) from "there but unreadable" (worth a diagnostic).
enum class FileRead { Ok, Absent, Error };

/// Reads the whole file into `out` (unmodified unless Ok is returned).
[[nodiscard]] FileRead read_file(const std::string& path, std::string* out);

/// Names of the regular files directly inside `dir`, sorted
/// lexicographically (the order spool drains replay in). An absent
/// directory is an empty listing, not an error; false only on a real
/// I/O failure.
[[nodiscard]] bool list_directory(const std::string& dir, std::vector<std::string>* names);

/// Deletes one file. Absent already counts as success (idempotent —
/// spool drains race with nothing, but crashes can re-run them).
[[nodiscard]] bool remove_file(const std::string& path);

}  // namespace servet
