/**
 * @file
 * Minimal CSV writer so bench binaries can optionally emit machine-readable
 * series (for replotting figures) alongside the human-readable tables,
 * plus a crash-safe file-backed variant (AtomicCsvFile) whose output
 * becomes visible all-at-once or not at all.
 */

#ifndef FO4_UTIL_CSV_HH
#define FO4_UTIL_CSV_HH

#include <ostream>
#include <string>
#include <vector>

#include "util/durable_file.hh"
#include "util/status.hh"

namespace fo4::util
{

/** Streams rows to an ostream in RFC-4180-ish CSV (quotes when needed). */
class CsvWriter
{
  public:
    explicit CsvWriter(std::ostream &os) : out(os) {}

    void writeRow(const std::vector<std::string> &cells);

    /** Quote and escape a single field if it contains , " or newline. */
    static std::string escape(const std::string &field);

  private:
    std::ostream &out;
};

/**
 * Crash-safe CSV output file, published through util::AtomicFile: rows
 * accumulate in the temporary and commit() makes the whole file visible
 * at once, so a reader (or a rerun after a crash) never observes a
 * half-written CSV.  Destroying an uncommitted AtomicCsvFile removes
 * the temporary.
 *
 * Failures to create, write, sync or rename throw
 * JournalError(ErrorCode::JournalIo) — the same durability error class
 * the write-ahead journal uses.  The try* variants return the same
 * failures as a typed Status instead, so a caller mid-sweep can treat a
 * full disk as "no CSV today" rather than an aborted run; writes honour
 * the disk-fault hook.
 */
class AtomicCsvFile
{
  public:
    /** Create the temporary for `path` (truncating a stale leftover). */
    explicit AtomicCsvFile(const std::string &path);

    AtomicCsvFile(const AtomicCsvFile &) = delete;
    AtomicCsvFile &operator=(const AtomicCsvFile &) = delete;

    void writeRow(const std::vector<std::string> &cells);

    /** writeRow() as a Status: ENOSPC/short writes come back typed.
     *  After a failure the temporary is suspect; commit() is refused. */
    Status tryWriteRow(const std::vector<std::string> &cells);

    /**
     * Make the file visible at its final path.  Call exactly once,
     * after the last row; no rows may be written afterwards.
     */
    void commit();

    /** commit() as a Status (no partial final file on failure: the
     *  rename only happens after a clean fsync of the temporary). */
    Status tryCommit();

    bool committed() const { return done; }

    /** Where rows land before commit() (exposed for tests). */
    const std::string &tempPath() const { return file.tmpPath(); }

  private:
    AtomicFile file;
    bool failed = false;
    bool done = false;
};

} // namespace fo4::util

#endif // FO4_UTIL_CSV_HH
