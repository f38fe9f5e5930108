#include "util/journal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.hh"

namespace fo4::util
{

namespace
{

/** "FO4 JouRNaL" + a newline so `head` shows binary-file damage fast;
 *  the header's u64 word is the identity fingerprint. */
constexpr ContainerFormat kJournalFormat = {
    .noun = "journal",
    .magic = "FO4JRNL\n",
    .version = kJournalVersion,
    .minFrame = 0,
    .maxFrame = kMaxJournalRecord,
    .io = ErrorCode::JournalIo,
    .format = ErrorCode::JournalFormat,
    .corrupt = ErrorCode::JournalCorrupt,
};

[[noreturn]] void
throwErrno(const std::string &what, const std::string &path)
{
    throw JournalError(ErrorCode::JournalIo,
                       strprintf("journal '%s': %s: %s", path.c_str(),
                                 what.c_str(), std::strerror(errno)));
}

int
openOrThrow(const std::string &path, int flags)
{
    const int fd = ::open(path.c_str(), flags);
    if (fd < 0)
        throwErrno("cannot open", path);
    return fd;
}

void
throwIfError(const Status &st)
{
    if (!st.isOk())
        throw JournalError(st.code(), st.message());
}

} // namespace

bool
journalExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

JournalContents
readJournal(const std::string &path)
{
    JournalContents contents;
    ContainerScan scan;
    throwIfError(readContainer(path, kJournalFormat, scan,
                               [&](std::string_view record) {
                                   contents.records.emplace_back(record);
                               }));
    contents.fingerprint = scan.word;
    contents.tornTail = scan.tornTail;
    contents.validBytes = scan.validBytes;
    return contents;
}

JournalWriter::JournalWriter(int fd, std::string path, bool syncEveryRecord)
    : fd(fd), path(std::move(path)), syncEach(syncEveryRecord)
{
}

JournalWriter
JournalWriter::create(const std::string &path, std::uint64_t fingerprint,
                      bool syncEveryRecord)
{
    // A crash leaves either the old state or a complete new journal,
    // never a file with a partial header.
    AtomicFile file;
    Status st = file.open(path);
    if (st.isOk())
        st = file.write(containerHeader(kJournalFormat, fingerprint));
    if (st.isOk())
        st = file.commit();
    throwIfError(st);
    return JournalWriter(openOrThrow(path, O_WRONLY | O_APPEND), path,
                         syncEveryRecord);
}

JournalWriter
JournalWriter::appendTo(const std::string &path,
                        const JournalContents &recovered,
                        bool syncEveryRecord)
{
    const int fd = openOrThrow(path, O_WRONLY);
    // Drop the torn tail (if any) so the file ends on a record boundary
    // before new appends land after it.
    if (::ftruncate(fd, static_cast<off_t>(recovered.validBytes)) != 0) {
        ::close(fd);
        throwErrno("truncate failed", path);
    }
    if (::lseek(fd, 0, SEEK_END) < 0) {
        ::close(fd);
        throwErrno("seek failed", path);
    }
    return JournalWriter(fd, path, syncEveryRecord);
}

JournalWriter::JournalWriter(JournalWriter &&other) noexcept
    : fd(other.fd), path(std::move(other.path)), syncEach(other.syncEach)
{
    other.fd = -1;
}

JournalWriter &
JournalWriter::operator=(JournalWriter &&other) noexcept
{
    if (this != &other) {
        if (fd >= 0)
            ::close(fd);
        fd = other.fd;
        path = std::move(other.path);
        syncEach = other.syncEach;
        other.fd = -1;
    }
    return *this;
}

JournalWriter::~JournalWriter()
{
    if (fd >= 0)
        ::close(fd);
}

void
JournalWriter::append(std::string_view payload)
{
    throwIfError(tryAppend(payload));
}

Status
JournalWriter::tryAppend(std::string_view payload)
{
    FO4_ASSERT(fd >= 0, "append on a closed journal");
    if (payload.size() > kMaxJournalRecord) {
        return Status(ErrorCode::JournalIo,
                      strprintf("journal '%s': a %zu-byte record exceeds "
                                "the %u-byte record bound",
                                path.c_str(), payload.size(),
                                kMaxJournalRecord));
    }
    // One frame, one write(): the kernel may still tear it across
    // sectors on a crash, but recovery handles exactly that case.
    std::string frame(kFrameHeadBytes, '\0');
    frame.append(payload);
    sealFrame(frame);
    if (const Status st =
            writeAllStatus(fd, frame.data(), frame.size(), path);
        !st.isOk())
        return st;
    if (syncEach)
        return trySync();
    return Status::ok();
}

void
JournalWriter::sync()
{
    throwIfError(trySync());
}

Status
JournalWriter::trySync()
{
    FO4_ASSERT(fd >= 0, "sync on a closed journal");
    if (::fsync(fd) != 0) {
        return Status(ErrorCode::JournalIo,
                      strprintf("'%s': fsync failed: %s", path.c_str(),
                                std::strerror(errno)));
    }
    return Status::ok();
}

void
JournalWriter::close()
{
    if (fd < 0)
        return;
    throwIfError(trySync());
    ::close(fd);
    fd = -1;
}

} // namespace fo4::util
