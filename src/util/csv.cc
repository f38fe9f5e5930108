#include "util/csv.hh"

#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::util
{

namespace
{

/** Render one row exactly as CsvWriter would stream it. */
std::string
renderRow(const std::vector<std::string> &cells)
{
    std::string row;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            row += ',';
        row += CsvWriter::escape(cells[i]);
    }
    row += '\n';
    return row;
}

} // namespace

AtomicCsvFile::AtomicCsvFile(const std::string &path)
{
    if (const Status st = file.open(path); !st.isOk())
        throw JournalError(st.code(), "csv " + st.message());
}

void
AtomicCsvFile::writeRow(const std::vector<std::string> &cells)
{
    if (const Status st = tryWriteRow(cells); !st.isOk())
        throw JournalError(st.code(), st.message());
}

Status
AtomicCsvFile::tryWriteRow(const std::vector<std::string> &cells)
{
    FO4_ASSERT(!done, "writeRow after commit()");
    const Status st = file.write(renderRow(cells));
    if (!st.isOk())
        failed = true;
    return st;
}

void
AtomicCsvFile::commit()
{
    if (const Status st = tryCommit(); !st.isOk())
        throw JournalError(st.code(), st.message());
}

Status
AtomicCsvFile::tryCommit()
{
    FO4_ASSERT(!done, "commit() called twice");
    if (failed) {
        return Status(ErrorCode::JournalIo,
                      strprintf("csv '%s': commit refused after an "
                                "earlier write failure",
                                file.path().c_str()));
    }
    const Status st = file.commit();
    done = st.isOk();
    return st;
}

std::string
CsvWriter::escape(const std::string &field)
{
    const bool needs_quotes =
        field.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            out << ",";
        out << escape(cells[i]);
    }
    out << "\n";
}

} // namespace fo4::util
