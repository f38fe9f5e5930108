/**
 * @file
 * Write-ahead result journal: the durability primitive under the
 * crash-safe sweep engine (study::CheckpointedRunner).
 *
 * A journal is an append-only record log, a framed container of the
 * durable-file layer (util/durable_file.hh):
 *
 *     header (32 bytes): magic, format version, identity fingerprint,
 *                        header CRC32
 *     record:            u32 payload length | u32 payload CRC32 | payload
 *
 * Durability discipline:
 *
 *  - the header is created atomically through util::AtomicFile — a
 *    crash during creation leaves either no journal or a complete one,
 *    never a half-written header;
 *  - each record is appended with a single write() and (by default)
 *    fsync'd before append() returns, so a record the caller has seen
 *    acknowledged survives a crash;
 *  - the recovery reader (readJournal) accepts the one state a crash
 *    can legitimately leave behind — a *torn trailing record*, i.e. an
 *    incomplete final frame — by discarding it and reporting where the
 *    valid prefix ends.  Damage anywhere else (a CRC mismatch on a
 *    complete record, a bad header) is not a crash artifact and is
 *    rejected with a typed JournalError: a journal is either trusted or
 *    refused, never silently patched.
 *
 * The identity fingerprint in the header binds the journal to the exact
 * inputs of the run that produced it; a resume against different inputs
 * is refused with ErrorCode::ResumeMismatch instead of silently merging
 * incompatible results (see study/checkpoint.hh).
 */

#ifndef FO4_UTIL_JOURNAL_HH
#define FO4_UTIL_JOURNAL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/durable_file.hh"
#include "util/status.hh"

namespace fo4::util
{

/**
 * Current journal format version (header field).  v2 widened the cell
 * payload with stall-attribution and occupancy fields; v1 journals are
 * refused with a typed JournalFormat error (rerun the sweep — cells are
 * cheap relative to silently resuming with zeroed observability).
 */
constexpr std::uint32_t kJournalVersion = 2;

/**
 * Largest record a journal holds: far above any cell record (a few
 * hundred bytes plus the benchmark name and error message).  append()
 * refuses a larger record, and readJournal() refuses a length word
 * above it as corruption — so a rotted length word inside acknowledged
 * data cannot pass for a torn tail.
 */
constexpr std::uint32_t kMaxJournalRecord = 1u << 20;

/** Everything recovery learns from an existing journal. */
struct JournalContents
{
    /** Identity fingerprint the journal was created with. */
    std::uint64_t fingerprint = 0;
    /** Every intact record's payload, in append order. */
    std::vector<std::string> records;
    /** True if a torn trailing record was discarded during recovery. */
    bool tornTail = false;
    /** File offset where the valid prefix ends (end of the last intact
     *  record); appending resumes here, truncating any torn tail. */
    std::uint64_t validBytes = 0;
};

/**
 * Read and verify a journal.  Tolerates exactly one kind of damage —
 * an incomplete trailing frame, which a crash mid-append produces —
 * and throws JournalError for everything else:
 *
 *  - JournalIo: the file cannot be opened or read;
 *  - JournalFormat: truncated or non-journal header, or a format
 *    version this build does not speak;
 *  - JournalCorrupt: header CRC mismatch, a record length word above
 *    kMaxJournalRecord, or a CRC mismatch on a record whose frame is
 *    complete (mid-file bit rot, not a torn append).
 */
JournalContents readJournal(const std::string &path);

/** True if `path` exists (journal presence check for resume logic). */
bool journalExists(const std::string &path);

/**
 * Appender.  Create a fresh journal with create(), or continue a
 * recovered one with appendTo() — which first truncates the torn tail,
 * if any, so the file again ends on a record boundary.
 *
 * Thread safety: none; callers serialize (the sweep engine appends
 * under its own mutex).
 */
class JournalWriter
{
  public:
    /**
     * Atomically create `path` with a fresh header carrying
     * `fingerprint` (through util::AtomicFile) and
     * open it for appending.  An existing file at `path` is replaced.
     * `syncEveryRecord` makes each append() fsync before returning
     * (durable but slower); pass false to batch syncs and call sync()
     * at flush points.
     */
    static JournalWriter create(const std::string &path,
                                std::uint64_t fingerprint,
                                bool syncEveryRecord = true);

    /**
     * Open an existing journal — already verified by readJournal, whose
     * result is passed in — for appending.  Truncates the file to
     * `recovered.validBytes` first, discarding a torn tail.
     */
    static JournalWriter appendTo(const std::string &path,
                                  const JournalContents &recovered,
                                  bool syncEveryRecord = true);

    JournalWriter(JournalWriter &&other) noexcept;
    JournalWriter &operator=(JournalWriter &&other) noexcept;
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Closes without a final sync; call close() for a durable end. */
    ~JournalWriter();

    /** Append one record (single write(); fsync if syncEveryRecord).
     *  Throws JournalError(JournalIo) on write/sync failure, or on a
     *  record above kMaxJournalRecord. */
    void append(std::string_view payload);

    /**
     * append() as a Status: ENOSPC, short writes and sync failures come
     * back typed instead of thrown, so a caller mid-sweep can degrade
     * (stop journaling, keep computing) rather than abort.  A failed
     * tryAppend may leave a torn record at the tail; recovery discards
     * it, so the journal's valid prefix stays trustworthy.
     */
    Status tryAppend(std::string_view payload);

    /** fsync the journal file. */
    void sync();

    /** sync() as a Status (same degradation contract as tryAppend). */
    Status trySync();

    /** sync and close; further appends are a caller bug. */
    void close();

  private:
    JournalWriter(int fd, std::string path, bool syncEveryRecord);

    int fd = -1;
    std::string path;
    bool syncEach = true;
};

} // namespace fo4::util

#endif // FO4_UTIL_JOURNAL_HH
