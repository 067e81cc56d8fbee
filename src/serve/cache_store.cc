#include "serve/cache_store.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/crc32.h"
#include "dvfs/strategy_io.h"
#include "serve/service.h"

namespace opdvfs::serve {

namespace {

// Caps mirroring the wire limits: persisted artefacts face the same
// adversary (torn files, bit flips) as frames, so they get the same
// pre-allocation bounds.
constexpr std::size_t kMaxFeatures = 64;
constexpr std::size_t kMaxStages = 16384;
constexpr std::size_t kMaxStrategyBytes = 1u << 20;
constexpr std::size_t kMaxSnapshotEntries = 100000;

constexpr char kWalMagic[4] = {'O', 'W', 'L', '1'};
constexpr std::size_t kWalHeaderBytes = 12;
constexpr std::size_t kWalRecordCap = 4u << 20;

/** The next non-empty, non-comment line, CR-stripped. */
bool
nextLine(std::istream &is, std::string &line)
{
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty() && line[0] != '#')
            return true;
    }
    return false;
}

std::string
needLine(std::istream &is, const char *what)
{
    std::string line;
    if (!nextLine(is, line))
        throw std::invalid_argument(
            std::string("cache_store: truncated entry: missing ") + what);
    return line;
}

double
finiteField(std::istringstream &fields, const char *what)
{
    double value = 0.0;
    if (!(fields >> value) || !std::isfinite(value))
        throw std::invalid_argument(
            std::string("cache_store: bad or non-finite ") + what);
    return value;
}

std::vector<double>
parseDoublesRecord(const std::string &line, const char *prefix,
                   std::size_t cap)
{
    std::istringstream fields(line);
    std::string token;
    std::uint64_t count = 0;
    if (!(fields >> token >> count) || token != prefix || count > cap)
        throw std::invalid_argument("cache_store: bad record: " + line);
    std::vector<double> values(static_cast<std::size_t>(count));
    for (double &value : values)
        value = finiteField(fields, prefix);
    if (!(fields >> std::ws).eof())
        throw std::invalid_argument(
            "cache_store: trailing fields in record: " + line);
    return values;
}

void
writeDoublesRecord(std::ostream &os, const char *prefix,
                   const std::vector<double> &values, std::size_t cap)
{
    if (values.size() > cap)
        throw std::invalid_argument(
            std::string("cache_store: too many ") + prefix + " values");
    os << prefix << ' ' << values.size();
    for (double value : values) {
        if (!std::isfinite(value))
            throw std::invalid_argument(
                std::string("cache_store: non-finite ") + prefix
                + " value");
        os << ' ' << value;
    }
    os << '\n';
}

void
putU32(std::string &out, std::uint32_t value)
{
    for (int byte = 0; byte < 4; ++byte)
        out.push_back(static_cast<char>(
            static_cast<std::uint8_t>(value >> (8 * byte))));
}

std::uint32_t
getU32(std::string_view bytes, std::size_t at)
{
    std::uint32_t value = 0;
    for (int byte = 0; byte < 4; ++byte)
        value |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(bytes[at + byte]))
                 << (8 * byte);
    return value;
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return std::move(buffer).str();
}

} // namespace

void
encodeCacheEntry(const CacheEntry &entry, std::ostream &os)
{
    if (!std::isfinite(entry.perf_loss_target)
        || entry.perf_loss_target <= 0.0 || entry.perf_loss_target >= 1.0)
        throw std::invalid_argument(
            "cache_store: perf_loss_target outside (0, 1)");
    if (!std::isfinite(entry.ga.best_score))
        throw std::invalid_argument("cache_store: non-finite best_score");
    std::ostringstream strategy_text;
    dvfs::saveStrategy(entry.strategy, strategy_text);
    std::string strategy = std::move(strategy_text).str();
    if (strategy.size() > kMaxStrategyBytes)
        throw std::invalid_argument(
            "cache_store: strategy text exceeds its block cap");

    // max_digits10 everywhere: every finite double round-trips to the
    // identical bit pattern, so a snapshot/WAL cycle is lossless.
    os << std::setprecision(17);
    os << "entry v1\n";
    os << "digest " << std::hex << std::setw(16) << std::setfill('0')
       << entry.fingerprint.digest << std::dec << std::setfill(' ')
       << '\n';
    os << "epoch " << entry.fingerprint.model_epoch << '\n';
    os << "loss " << entry.perf_loss_target << '\n';
    os << "score " << entry.ga.best_score << '\n';
    os << "donor " << (entry.kind == CacheEntry::Kind::Donor ? 1 : 0)
       << '\n';
    writeDoublesRecord(os, "features", entry.fingerprint.features,
                       kMaxFeatures);
    writeDoublesRecord(os, "mhz", entry.ga.best_mhz, kMaxStages);
    os << "strategy " << strategy.size() << '\n';
    os << strategy;
    os << "endentry\n";
}

CacheEntry
decodeCacheEntry(std::istream &is)
{
    std::string line = needLine(is, "header");
    if (line != "entry v1")
        throw std::invalid_argument("cache_store: bad entry header: "
                                    + line);
    CacheEntry entry;

    auto parseField = [](const std::string &record, const char *prefix) {
        std::istringstream fields(record);
        std::string token;
        if (!(fields >> token) || token != prefix)
            throw std::invalid_argument("cache_store: expected " +
                                        std::string(prefix) + " record: "
                                        + record);
        return fields;
    };

    {
        std::istringstream fields =
            parseField(needLine(is, "digest"), "digest");
        std::string hex;
        if (!(fields >> hex) || hex.size() != 16
            || hex.find_first_not_of("0123456789abcdefABCDEF")
                   != std::string::npos
            || !(fields >> std::ws).eof())
            throw std::invalid_argument("cache_store: bad digest record");
        entry.fingerprint.digest = std::stoull(hex, nullptr, 16);
    }
    {
        std::istringstream fields =
            parseField(needLine(is, "epoch"), "epoch");
        if (!(fields >> entry.fingerprint.model_epoch)
            || !(fields >> std::ws).eof())
            throw std::invalid_argument("cache_store: bad epoch record");
    }
    {
        std::istringstream fields = parseField(needLine(is, "loss"),
                                               "loss");
        entry.perf_loss_target = finiteField(fields, "loss");
        if (entry.perf_loss_target <= 0.0
            || entry.perf_loss_target >= 1.0
            || !(fields >> std::ws).eof())
            throw std::invalid_argument(
                "cache_store: perf_loss_target outside (0, 1)");
    }
    {
        std::istringstream fields = parseField(needLine(is, "score"),
                                               "score");
        entry.ga.best_score = finiteField(fields, "score");
        if (!(fields >> std::ws).eof())
            throw std::invalid_argument("cache_store: bad score record");
    }
    {
        std::istringstream fields = parseField(needLine(is, "donor"),
                                               "donor");
        int donor = -1;
        if (!(fields >> donor) || (donor != 0 && donor != 1)
            || !(fields >> std::ws).eof())
            throw std::invalid_argument("cache_store: bad donor record");
        if (donor == 1)
            entry.kind = CacheEntry::Kind::Donor;
    }
    entry.fingerprint.features = parseDoublesRecord(
        needLine(is, "features"), "features", kMaxFeatures);
    entry.ga.best_mhz =
        parseDoublesRecord(needLine(is, "mhz"), "mhz", kMaxStages);

    std::size_t strategy_bytes = 0;
    {
        std::istringstream fields =
            parseField(needLine(is, "strategy"), "strategy");
        std::uint64_t bytes = 0;
        if (!(fields >> bytes) || bytes > kMaxStrategyBytes
            || !(fields >> std::ws).eof())
            throw std::invalid_argument(
                "cache_store: bad strategy record");
        strategy_bytes = static_cast<std::size_t>(bytes);
    }
    std::string strategy_text(strategy_bytes, '\0');
    if (!is.read(strategy_text.data(),
                 static_cast<std::streamsize>(strategy_bytes)))
        throw std::invalid_argument(
            "cache_store: truncated strategy block");
    // The embedded text must itself be a loadable strategy — a corrupt
    // entry is rejected here, never handed to the executor.
    try {
        std::istringstream strategy_is(strategy_text);
        entry.strategy = dvfs::loadStrategy(strategy_is);
    } catch (const std::invalid_argument &error) {
        throw std::invalid_argument(
            std::string("cache_store: embedded strategy rejected: ")
            + error.what());
    }
    if (needLine(is, "endentry") != "endentry")
        throw std::invalid_argument(
            "cache_store: missing endentry terminator");
    return entry;
}

std::string
encodeCacheSnapshot(const CacheSnapshot &snapshot)
{
    if (snapshot.entries.size() > kMaxSnapshotEntries)
        throw std::invalid_argument(
            "cache_store: snapshot exceeds the entry cap");
    std::ostringstream os;
    os << "cachesnap v1\n"
       << "epoch " << snapshot.model_epoch << '\n'
       << "count " << snapshot.entries.size() << '\n';
    for (const CacheEntry &entry : snapshot.entries)
        encodeCacheEntry(entry, os);
    std::string body = std::move(os).str();
    Crc32 crc;
    crc.update(body);
    std::ostringstream footer;
    footer << "crc32 " << std::hex << std::setw(8) << std::setfill('0')
           << crc.value() << '\n';
    return body + footer.str();
}

CacheSnapshot
decodeCacheSnapshot(std::string_view text)
{
    // The footer is the *last* line; entries may legitimately contain
    // "crc32" lines of their own (embedded strategy files), so search
    // from the end.
    std::size_t footer = text.rfind("\ncrc32 ");
    if (footer == std::string_view::npos)
        throw std::invalid_argument(
            "cache_store: snapshot missing its crc32 footer");
    std::size_t body_bytes = footer + 1; // the newline belongs to the body
    std::string footer_line(text.substr(body_bytes));
    {
        std::istringstream fields(footer_line);
        std::string token;
        std::string hex;
        if (!(fields >> token >> hex) || token != "crc32"
            || hex.size() != 8
            || hex.find_first_not_of("0123456789abcdefABCDEF")
                   != std::string::npos
            || !(fields >> std::ws).eof())
            throw std::invalid_argument(
                "cache_store: bad snapshot footer: " + footer_line);
        std::uint32_t declared = static_cast<std::uint32_t>(
            std::stoul(hex, nullptr, 16));
        if (crc32(text.substr(0, body_bytes)) != declared)
            throw std::invalid_argument(
                "cache_store: snapshot CRC mismatch");
    }

    std::istringstream is{std::string(text.substr(0, body_bytes))};
    std::string line = needLine(is, "header");
    if (line != "cachesnap v1")
        throw std::invalid_argument("cache_store: bad snapshot header: "
                                    + line);
    auto parseUint = [&is](const char *prefix, std::uint64_t max) {
        std::string record = needLine(is, prefix);
        std::istringstream fields(record);
        std::string token;
        std::uint64_t value = 0;
        if (!(fields >> token >> value) || token != prefix || value > max
            || !(fields >> std::ws).eof())
            throw std::invalid_argument("cache_store: bad snapshot "
                                        "record: "
                                        + record);
        return value;
    };
    CacheSnapshot snapshot;
    snapshot.model_epoch = parseUint("epoch", ~0ull);
    std::uint64_t count = parseUint("count", kMaxSnapshotEntries);
    snapshot.entries.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t at = 0; at < count; ++at)
        snapshot.entries.push_back(decodeCacheEntry(is));
    if (nextLine(is, line))
        throw std::invalid_argument(
            "cache_store: trailing garbage after snapshot entries: "
            + line);
    return snapshot;
}

void
saveCacheSnapshotFile(const CacheSnapshot &snapshot,
                      const std::string &path)
{
    std::string text = encodeCacheSnapshot(snapshot);
    // The strategy_io idiom: write the whole image to a temp file,
    // flush, then rename into place — a crash mid-write leaves the
    // previous snapshot intact.
    std::string temp = path + ".tmp";
    {
        std::ofstream os(temp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error(
                "cache_store: cannot open for write: " + temp);
        os.write(text.data(), static_cast<std::streamsize>(text.size()));
        os.flush();
        if (!os)
            throw std::runtime_error("cache_store: write failed: "
                                     + temp);
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cache_store: rename failed: " + path);
}

std::optional<CacheSnapshot>
loadCacheSnapshotFile(const std::string &path)
{
    std::optional<std::string> text = readFile(path);
    if (!text)
        return std::nullopt;
    try {
        return decodeCacheSnapshot(*text);
    } catch (const std::exception &) {
        // A corrupt snapshot is treated as absent: recovery proceeds
        // from the WAL alone instead of refusing to start.
        return std::nullopt;
    }
}

std::string
encodeWalRecord(const CacheEntry &entry)
{
    std::ostringstream payload_os;
    encodeCacheEntry(entry, payload_os);
    std::string payload = std::move(payload_os).str();
    if (payload.size() > kWalRecordCap)
        throw std::invalid_argument(
            "cache_store: WAL record exceeds its cap");
    std::string record;
    record.reserve(kWalHeaderBytes + payload.size());
    record.append(kWalMagic, sizeof(kWalMagic));
    putU32(record, static_cast<std::uint32_t>(payload.size()));
    putU32(record, crc32(payload));
    record.append(payload);
    return record;
}

WalReplay
replayWalBuffer(std::string_view buffer)
{
    WalReplay replay;
    std::size_t at = 0;
    while (buffer.size() - at >= kWalHeaderBytes) {
        if (std::memcmp(buffer.data() + at, kWalMagic,
                        sizeof(kWalMagic))
            != 0)
            break;
        std::size_t length = getU32(buffer, at + 4);
        std::uint32_t declared_crc = getU32(buffer, at + 8);
        if (length > kWalRecordCap
            || buffer.size() - at - kWalHeaderBytes < length)
            break; // torn tail: the record never finished writing
        std::string_view payload =
            buffer.substr(at + kWalHeaderBytes, length);
        if (crc32(payload) != declared_crc)
            break; // bit flip inside the record
        CacheEntry entry;
        try {
            std::istringstream is{std::string(payload)};
            entry = decodeCacheEntry(is);
        } catch (const std::exception &) {
            // CRC-valid but semantically corrupt (should not happen
            // for records we wrote; defends against foreign bytes).
            break;
        }
        replay.entries.push_back(std::move(entry));
        at += kWalHeaderBytes + length;
        replay.valid_bytes = at;
    }
    replay.truncated_tail = replay.valid_bytes < buffer.size();
    return replay;
}

WalReplay
replayWalFile(const std::string &path, bool truncate_torn_tail)
{
    std::optional<std::string> bytes = readFile(path);
    if (!bytes)
        return {};
    WalReplay replay = replayWalBuffer(*bytes);
    if (replay.truncated_tail && truncate_torn_tail) {
        // Cut the file back to the valid prefix so the next append
        // extends good bytes instead of burying them behind garbage.
        std::error_code ec;
        std::filesystem::resize_file(path, replay.valid_bytes, ec);
    }
    return replay;
}

RestoreReport
restoreServiceCache(StrategyService &service,
                    const std::string &snapshot_path,
                    const std::string &wal_path)
{
    RestoreReport report;
    std::vector<CacheEntry> entries;
    std::uint64_t snapshot_epoch = 0;
    if (auto snapshot = loadCacheSnapshotFile(snapshot_path)) {
        report.snapshot_loaded = true;
        report.snapshot_entries = snapshot->entries.size();
        snapshot_epoch = snapshot->model_epoch;
        entries = std::move(snapshot->entries);
    }
    WalReplay replay = replayWalFile(wal_path);
    report.wal_entries = replay.entries.size();
    report.wal_truncated = replay.truncated_tail;
    // WAL entries follow the snapshot, so a digest updated after the
    // snapshot was captured restores to its logged (newer) value.
    for (CacheEntry &entry : replay.entries)
        entries.push_back(std::move(entry));
    report.restored = service.restoreEntries(std::move(entries));
    // The snapshot's service epoch can exceed every entry's (e.g. a
    // recalibration emptied the fresh set); never restart below it.
    service.raiseModelEpoch(snapshot_epoch);
    return report;
}

CachePersister::CachePersister(Options options,
                               std::function<CacheSnapshot()> snapshot_fn)
    : options_(std::move(options)), snapshot_fn_(std::move(snapshot_fn))
{
    if (!snapshot_fn_)
        throw std::invalid_argument(
            "cache_store: CachePersister needs a snapshot function");
    if (options_.snapshot_path.empty() || options_.wal_path.empty())
        throw std::invalid_argument(
            "cache_store: CachePersister needs snapshot and WAL paths");
    if (options_.queue_capacity == 0)
        throw std::invalid_argument(
            "cache_store: zero persister queue capacity");
    writer_ = std::thread([this] { writerLoop(); });
}

CachePersister::~CachePersister()
{
    stop(false);
}

void
CachePersister::onInsert(const CacheEntry &entry)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        if (queue_.size() >= options_.queue_capacity) {
            // Bounded by design: a slow disk costs crash-durability of
            // one entry (a recompute), never unbounded memory.
            ++wal_dropped_;
            return;
        }
        queue_.push_back(entry);
    }
    wake_.notify_all();
}

void
CachePersister::flush()
{
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.notify_all();
    drained_.wait(lock, [this] {
        return stopping_ || (queue_.empty() && !writing_);
    });
}

void
CachePersister::writeSnapshotNow()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_)
        return;
    std::uint64_t target = snapshot_attempts_ + 1;
    snapshot_requested_ = true;
    wake_.notify_all();
    drained_.wait(lock, [this, target] {
        return stopping_ || snapshot_attempts_ >= target;
    });
}

void
CachePersister::stop(bool write_final_snapshot)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (write_final_snapshot && !stopping_)
            final_snapshot_ = true;
        stopping_ = true;
    }
    wake_.notify_all();
    std::lock_guard<std::mutex> join_lock(join_mutex_);
    if (writer_.joinable())
        writer_.join();
}

CachePersister::Stats
CachePersister::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out;
    out.wal_appends = wal_appends_;
    out.wal_dropped = wal_dropped_;
    out.snapshots_written = snapshots_written_;
    out.queue_depth = queue_.size();
    return out;
}

std::size_t
CachePersister::drainQueueLocked(std::unique_lock<std::mutex> &lock)
{
    std::deque<CacheEntry> batch;
    batch.swap(queue_);
    if (batch.empty())
        return 0;
    writing_ = true;
    lock.unlock();
    std::string bytes;
    for (const CacheEntry &entry : batch)
        bytes += encodeWalRecord(entry);
    bool ok = false;
    {
        std::ofstream os(options_.wal_path,
                         std::ios::binary | std::ios::app);
        if (os) {
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
            os.flush();
            ok = static_cast<bool>(os);
        }
    }
    lock.lock();
    writing_ = false;
    if (ok)
        wal_appends_ += batch.size();
    else
        wal_dropped_ += batch.size();
    drained_.notify_all();
    return batch.size();
}

void
CachePersister::writeSnapshotLocked(std::unique_lock<std::mutex> &lock)
{
    writing_ = true;
    lock.unlock();
    bool ok = true;
    try {
        CacheSnapshot snapshot = snapshot_fn_();
        saveCacheSnapshotFile(snapshot, options_.snapshot_path);
        // Safe ordering: this thread is the only WAL writer, so no
        // insert can land between the capture above and this truncate
        // — every logged entry is covered by the snapshot.
        std::ofstream truncate(options_.wal_path,
                               std::ios::binary | std::ios::trunc);
        (void)truncate;
    } catch (const std::exception &) {
        ok = false;
    }
    lock.lock();
    writing_ = false;
    ++snapshot_attempts_;
    if (ok)
        ++snapshots_written_;
    drained_.notify_all();
}

void
CachePersister::writerLoop()
{
    auto interval_of = [this] {
        return std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                options_.snapshot_interval_seconds));
    };
    bool timed = options_.snapshot_interval_seconds > 0.0;
    auto last_snapshot = std::chrono::steady_clock::now();

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto woken = [this] {
            return stopping_ || snapshot_requested_ || !queue_.empty();
        };
        if (timed)
            wake_.wait_until(lock, last_snapshot + interval_of(), woken);
        else
            wake_.wait(lock, woken);
        if (stopping_)
            break;
        drainQueueLocked(lock);
        bool due = snapshot_requested_
                   || (timed
                       && std::chrono::steady_clock::now() - last_snapshot
                              >= interval_of());
        if (due) {
            snapshot_requested_ = false;
            writeSnapshotLocked(lock);
            last_snapshot = std::chrono::steady_clock::now();
        }
    }
    if (final_snapshot_) {
        // Graceful shutdown: everything queued reaches the WAL, then
        // one last snapshot captures the final cache image.
        drainQueueLocked(lock);
        writeSnapshotLocked(lock);
    }
    drained_.notify_all();
}

} // namespace opdvfs::serve
