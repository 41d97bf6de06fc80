#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <optional>
#include <utility>

#include "base/fs.hpp"
#include "base/hash.hpp"
#include "base/log.hpp"
#include "base/text.hpp"

namespace servet::core {

namespace {

constexpr const char* kRunHeader = "servet-journal 1";
constexpr const char* kRunFileName = "journal.servet";
constexpr const char* kSeriesHeader = "servet-series 1";
constexpr const char* kSeriesFileName = "series.servet";

/// Reads the next '\n'-terminated line starting at `pos`; false at EOF or
/// on an unterminated line (a torn append never counts as a line).
bool next_line(const std::string& text, std::size_t& pos, std::string& line) {
    if (pos >= text.size()) return false;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) return false;
    line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
}

/// "key = value" with the profile format's spacing; empty key on mismatch.
std::pair<std::string, std::string> split_kv(const std::string& line) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return {};
    const std::string_view view = line;
    return {std::string(trim(view.substr(0, eq))), std::string(trim(view.substr(eq + 1)))};
}

// ---- framed-record machinery shared by RunJournal and SeriesJournal ----

/// The identity block every journal kind starts with, after its magic.
std::string header_text(const char* magic, const RunJournal::Header& header) {
    std::string out = std::string(magic) + '\n';
    out += "options = " + format_hex64(header.options_hash) + '\n';
    out += "fingerprint = " + format_hex64(header.fingerprint) + '\n';
    out += "machine = " + header.machine + '\n';
    out += "cores = " + std::to_string(header.cores) + '\n';
    out += "page_size = " + std::to_string(header.page_size) + '\n';
    return out;
}

/// Parses the magic + identity block at `pos`, advancing it past the
/// header. Throws JournalError on any malformation.
RunJournal::Header parse_header(const std::string& text, std::size_t& pos, const char* magic,
                                const std::string& path) {
    std::string line;
    if (!next_line(text, pos, line) || line != magic)
        throw JournalError("malformed journal " + path + ": bad header (expected '" +
                           magic + "')");
    RunJournal::Header loaded;
    for (const char* key : {"options", "fingerprint", "machine", "cores", "page_size"}) {
        if (!next_line(text, pos, line))
            throw JournalError("malformed journal " + path + ": truncated header");
        const auto [k, v] = split_kv(line);
        if (k != key)
            throw JournalError("malformed journal " + path + ": expected '" + key +
                               "', found '" + line + "'");
        if (k == "machine") {
            loaded.machine = v;
            continue;
        }
        const auto bad = [&] {
            return JournalError("malformed journal " + path + ": bad " + k);
        };
        if (k == "options" || k == "fingerprint") {
            const auto parsed = parse_int<std::uint64_t>(v, 16);
            if (!parsed) throw bad();
            (k == "options" ? loaded.options_hash : loaded.fingerprint) = *parsed;
        } else if (k == "cores") {
            const auto parsed = parse_int<int>(v);
            if (!parsed || *parsed < 0) throw bad();
            loaded.cores = *parsed;
        } else {
            const auto parsed = parse_int<Bytes>(v);
            if (!parsed) throw bad();
            loaded.page_size = *parsed;
        }
    }
    return loaded;
}

/// Compatibility: resuming must never mix measurements of different
/// configurations or machines into one journal.
void check_compatible(const RunJournal::Header& loaded, const RunJournal::Header& expected,
                      const std::string& path) {
    if (loaded.options_hash != expected.options_hash)
        throw JournalError("journal " + path + " was written with options hash " +
                           format_hex64(loaded.options_hash) + " but this run's is " +
                           format_hex64(expected.options_hash) +
                           "; pass the same options to resume, or use a fresh --run-dir");
    if (loaded.fingerprint != 0 && expected.fingerprint != 0) {
        if (loaded.fingerprint != expected.fingerprint)
            throw JournalError("journal " + path + " measured machine fingerprint " +
                               format_hex64(loaded.fingerprint) + " but this run targets " +
                               format_hex64(expected.fingerprint) +
                               "; resume on the same machine, or use a fresh --run-dir");
    } else if (loaded.machine != expected.machine) {
        // No content fingerprint to compare (real hardware): the machine
        // name is the only identity available.
        throw JournalError("journal " + path + " measured machine '" + loaded.machine +
                           "' but this run targets '" + expected.machine +
                           "'; resume on the same machine, or use a fresh --run-dir");
    }
    if (loaded.cores != expected.cores || loaded.page_size != expected.page_size)
        throw JournalError("journal " + path + " measured a machine with " +
                           std::to_string(loaded.cores) + " cores and " +
                           std::to_string(loaded.page_size) + "-byte pages; this run's has " +
                           std::to_string(expected.cores) + " and " +
                           std::to_string(expected.page_size));
}

/// One committed framed record, plus where its frame line started — the
/// truncation point if a later record turns out torn.
struct FramedRecord {
    std::size_t offset = 0;
    std::string key;
    std::string extra;  ///< frame-line fields after the length (may be empty)
    std::string payload;
};

/// Parses `<kind> <key> <length>[ <extra>]\n<payload>\ncommit <key>
/// <hash>[ ...]\n` records from `pos` to EOF. Returns the byte offset
/// where parsing stopped: text.size() when every record committed, the
/// start of the first undecodable record otherwise (the torn-tail
/// signature of a crash mid-append — appends are serialized, so only the
/// last record can be torn).
std::size_t read_framed_records(const std::string& text, std::size_t pos, const char* kind,
                                std::vector<FramedRecord>& out) {
    std::string line;
    while (true) {
        const std::size_t record_start = pos;
        if (!next_line(text, pos, line)) return record_start;
        if (line.empty()) continue;
        // The fields after the length (the run journal's seconds) stay
        // one text: their damage is judged by the caller, not here.
        const std::vector<std::string_view> fields = split(line, ' ');
        const auto length =
            fields.size() >= 3 ? parse_int<std::size_t>(fields[2]) : std::nullopt;
        if (!length || fields[0] != kind || fields[1].empty() || *length >= text.size() - pos)
            return record_start;
        FramedRecord record;
        record.offset = record_start;
        record.key = fields[1];
        if (fields.size() > 3)
            record.extra = line.substr(static_cast<std::size_t>(fields[3].data() - line.data()));
        record.payload = text.substr(pos, *length);
        pos += *length;
        if (text[pos] != '\n') return record_start;
        ++pos;
        std::string commit_line;
        if (!next_line(text, pos, commit_line)) return record_start;
        const std::vector<std::string_view> commit = split(commit_line, ' ');
        if (commit.size() < 3 || commit[0] != "commit" || commit[1] != record.key)
            return record_start;
        const auto hash = parse_int<std::uint64_t>(commit[2], 16);
        if (!hash || *hash != fnv1a64(record.payload)) return record_start;
        out.push_back(std::move(record));
    }
}

/// Physically removes a torn tail so the next fsync'd append lands after
/// the last *committed* record — appending after torn bytes would bury
/// every later record behind an unparseable one. Best-effort: on failure
/// the journal still loads (the tail re-discards every open), it just
/// must not be appended to, which the caller's log line makes loud.
void truncate_torn_tail(const std::string& path, std::size_t valid_bytes) {
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0)
        SERVET_LOG_ERROR("journal: cannot truncate torn tail of %s at %zu bytes; "
                         "records appended from here may be lost on the next load",
                         path.c_str(), valid_bytes);
}

/// Appends `record` to `path` and fsyncs it. The fsync is the commit
/// point: once it returns, the record survives any crash; a torn write
/// before it is discarded on load by the length/hash framing.
bool append_synced(const std::string& path, const std::string& record) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) return false;
    const char* data = record.data();
    std::size_t remaining = record.size();
    while (remaining > 0) {
        const ssize_t n = ::write(fd, data, remaining);
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            return false;
        }
        data += n;
        remaining -= static_cast<std::size_t>(n);
    }
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    return synced;
}

}  // namespace

std::uint64_t suite_options_hash(const SuiteOptions& options) {
    Fingerprint fp;
    fp.add(std::string_view("suite-options 1"));
    const McalibratorOptions& mc = options.mcalibrator;
    fp.add(mc.min_size);
    fp.add(mc.max_size);
    fp.add(mc.stride);
    fp.add(mc.passes);
    fp.add(mc.repeats);
    fp.add(mc.core);
    const CacheDetectOptions& detect = options.detect;
    // detect.page_size is excluded: run_suite overwrites it from the
    // platform, whose identity the journal header carries already.
    fp.add(detect.gradient_threshold);
    fp.add(detect.min_total_rise);
    fp.add(detect.split_prominence);
    fp.add(static_cast<std::uint64_t>(detect.associativities.size()));
    for (const int k : detect.associativities) fp.add(k);
    fp.add(detect.mode_votes);
    fp.add(static_cast<int>(detect.model));
    const SharedCacheOptions& shared = options.shared_cache;
    fp.add(shared.stride);
    fp.add(shared.passes);
    fp.add(shared.ratio_threshold);
    fp.add(shared.only_with_core);
    const MemOverheadOptions& mem = options.mem_overhead;
    fp.add(mem.array_bytes);
    fp.add(mem.overhead_epsilon);
    fp.add(mem.cluster_tolerance);
    fp.add(mem.only_with_core);
    const CommCostsOptions& comm = options.comm;
    fp.add(comm.probe_message);
    fp.add(comm.reps);
    fp.add(comm.cluster_tolerance);
    fp.add(static_cast<std::uint64_t>(comm.sweep_sizes.size()));
    for (const Bytes size : comm.sweep_sizes) fp.add(size);
    fp.add(comm.max_concurrent);
    fp.add(comm.max_retries);
    fp.add(static_cast<std::uint64_t>(comm.probe_pairs.size()));
    for (const CorePair& pair : comm.probe_pairs) {
        fp.add(pair.a);
        fp.add(pair.b);
    }
    fp.add(options.run_cache_size);
    fp.add(options.run_shared_cache);
    fp.add(options.run_mem_overhead);
    fp.add(options.run_comm);
    return fp.value();
}

std::string RunJournal::file_path(const std::string& run_dir) {
    return run_dir + "/" + kRunFileName;
}

RunJournal::RunJournal(const std::string& run_dir, const Header& header, Mode mode)
    : path_(file_path(run_dir)), header_(header) {
    if (!create_directories(run_dir))
        throw JournalError("cannot create run directory " + run_dir);

    std::string text;
    const FileRead read = read_file(path_, &text);
    if (read == FileRead::Error)
        throw JournalError("cannot read run journal " + path_);

    if (mode == Mode::Resume && read == FileRead::Ok) {
        load(text);
        return;
    }
    // Fresh journal (Create, or Resume with nothing to resume): write the
    // header block atomically so a half-created journal never exists.
    if (!write_file_atomic(path_, header_text(kRunHeader, header_)))
        throw JournalError("cannot write run journal " + path_);
}

void RunJournal::load(const std::string& text) {
    std::size_t pos = 0;
    const Header loaded = parse_header(text, pos, kRunHeader, path_);
    check_compatible(loaded, header_, path_);

    std::vector<FramedRecord> framed;
    std::size_t valid_end = read_framed_records(text, pos, "phase", framed);
    for (std::size_t i = 0; i < framed.size(); ++i) {
        FramedRecord& record = framed[i];
        // The frame's trailing field is the producing run's wall-clock.
        // The commit hash covers only the payload, so this field can be
        // damaged on a record whose payload still verifies.
        const std::optional<double> seconds = parse_double(record.extra);
        if (!seconds) {
            if (i + 1 == framed.size()) {
                // Last committed record: the damage is a genuine tail and
                // truncating it only removes the bad record itself.
                valid_end = record.offset;
                break;
            }
            // Committed records follow: mid-file damage, not a torn tail.
            // Skip just this record in memory — truncating here would
            // physically destroy every later committed record.
            SERVET_LOG_ERROR("journal: skipping phase '%s' in %s: corrupt seconds "
                             "field on an otherwise committed record",
                             record.key.c_str(), path_.c_str());
            continue;
        }
        // Later records win: a repair rewrite never duplicates, but a
        // re-measured phase appended after a replayed one must shadow it.
        records_.insert_or_assign(record.key, Record{std::move(record.payload), *seconds});
    }
    if (valid_end < text.size()) {
        dropped_torn_tail_ = true;
        truncate_torn_tail(path_, valid_end);
    }
}

const RunJournal::Record* RunJournal::find(const std::string& phase) const {
    const auto it = records_.find(phase);
    return it == records_.end() ? nullptr : &it->second;
}

bool RunJournal::append(const std::string& phase, const std::string& payload,
                        Seconds seconds, std::uint64_t digest) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string record = "phase " + phase + ' ' + std::to_string(payload.size()) + ' ' +
                         format_hexfloat(seconds) + '\n';
    record += payload;
    record += '\n';
    record += "commit " + phase + ' ' + format_hex64(fnv1a64(payload)) + ' ' +
              format_hex64(digest) + '\n';
    if (!append_synced(path_, record)) return false;
    records_.insert_or_assign(phase, Record{payload, seconds});
    return true;
}

bool RunJournal::drop(const std::string& phase) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (records_.erase(phase) == 0) return true;
    if (write_file_atomic(path_, serialize_all())) return true;
    SERVET_LOG_ERROR("journal: cannot rewrite %s after dropping phase %s", path_.c_str(),
                     phase.c_str());
    return false;
}

std::string RunJournal::serialize_all() const {
    std::string out = header_text(kRunHeader, header_);
    for (const auto& [phase, record] : records_) {
        out += "phase " + phase + ' ' + std::to_string(record.payload.size()) + ' ' +
               format_hexfloat(record.seconds) + '\n';
        out += record.payload;
        out += '\n';
        out += "commit " + phase + ' ' + format_hex64(fnv1a64(record.payload)) + ' ' +
               format_hex64(0) + '\n';
    }
    return out;
}

std::string SeriesJournal::file_path(const std::string& run_dir) {
    return run_dir + "/" + kSeriesFileName;
}

SeriesJournal::SeriesJournal(const std::string& run_dir, const Header& header, Mode mode)
    : path_(file_path(run_dir)), header_(header) {
    if (!create_directories(run_dir))
        throw JournalError("cannot create run directory " + run_dir);

    std::string text;
    const FileRead read = read_file(path_, &text);
    if (read == FileRead::Error)
        throw JournalError("cannot read series journal " + path_);

    if (mode == Mode::Resume && read == FileRead::Ok) {
        load(text);
        return;
    }
    if (!write_file_atomic(path_, header_text(kSeriesHeader, header_)))
        throw JournalError("cannot write series journal " + path_);
}

void SeriesJournal::load(const std::string& text) {
    std::size_t pos = 0;
    const Header loaded = parse_header(text, pos, kSeriesHeader, path_);
    check_compatible(loaded, header_, path_);

    std::vector<FramedRecord> framed;
    std::size_t valid_end = read_framed_records(text, pos, "sample", framed);
    for (FramedRecord& record : framed) {
        // Ticks are positional: sample k must carry key k. A mismatch
        // means the stream was edited or corrupted mid-file — everything
        // from here on is untrustworthy and is discarded like a torn tail.
        if (record.key != std::to_string(samples_.size())) {
            valid_end = record.offset;
            break;
        }
        samples_.push_back(std::move(record.payload));
    }
    if (valid_end < text.size()) {
        dropped_torn_tail_ = true;
        truncate_torn_tail(path_, valid_end);
    }
}

bool SeriesJournal::append(const std::string& payload) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::string tick = std::to_string(samples_.size());
    std::string record = "sample " + tick + ' ' + std::to_string(payload.size()) + '\n';
    record += payload;
    record += '\n';
    record += "commit " + tick + ' ' + format_hex64(fnv1a64(payload)) + '\n';
    if (!append_synced(path_, record)) return false;
    samples_.push_back(payload);
    return true;
}

}  // namespace servet::core
