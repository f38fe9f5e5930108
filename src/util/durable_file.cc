#include "util/durable_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/logging.hh"

namespace fo4::util
{

namespace
{

DiskFaultHook &
diskFaultHook()
{
    static DiskFaultHook hook;
    return hook;
}

Status
ioError(const std::string &path, const char *what, int err)
{
    return Status(ErrorCode::JournalIo,
                  strprintf("'%s': %s: %s", path.c_str(), what,
                            std::strerror(err)));
}

/** fsync the directory holding `path`: only the directory entry's
 *  durability keeps a renamed file from vanishing on power loss. */
Status
fsyncParentDirectory(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return ioError(dir, "cannot open directory", errno);
    const bool ok = ::fsync(fd) == 0;
    const int err = errno;
    ::close(fd);
    return ok ? Status::ok() : ioError(dir, "directory fsync failed", err);
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t crc)
{
    // Standard reflected CRC-32 (polynomial 0xEDB88320), table built on
    // first use.
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
            t[i] = c;
        }
        return t;
    }();

    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
setDiskFaultHook(DiskFaultHook hook)
{
    diskFaultHook() = std::move(hook);
}

Status
writeAllStatus(int fd, const void *data, std::size_t size,
               const std::string &path)
{
    const std::size_t requested = size;
    const auto *p = static_cast<const unsigned char *>(data);

    if (const DiskFaultHook &hook = diskFaultHook()) {
        if (const std::optional<DiskFault> fault = hook(path)) {
            // Land the partial prefix for real (a torn record the
            // recovery reader must cope with), then fail typed.
            std::size_t landed = 0;
            while (landed < fault->shortWriteBytes && landed < size) {
                const ssize_t n = ::write(
                    fd, p + landed,
                    std::min(fault->shortWriteBytes, size) - landed);
                if (n <= 0)
                    break;
                landed += static_cast<std::size_t>(n);
            }
            return Status(
                ErrorCode::JournalIo,
                strprintf("'%s': write failed after %zu of %zu bytes: "
                          "%s (injected fault)",
                          path.c_str(), landed, requested,
                          std::strerror(fault->failErrno)));
        }
    }

    while (size > 0) {
        const ssize_t n = ::write(fd, p, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status(
                ErrorCode::JournalIo,
                strprintf("'%s': write failed after %zu of %zu bytes: "
                          "%s",
                          path.c_str(), requested - size, requested,
                          std::strerror(errno)));
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return Status::ok();
}

int
readWholeFile(const std::string &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return errno;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            return err;
        }
        if (n == 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return 0;
}

// ---------------------------------------------------------------------
// AtomicFile
// ---------------------------------------------------------------------

std::string
AtomicFile::tmpPathFor(const std::string &path)
{
    return path + ".tmp." + std::to_string(::getpid());
}

AtomicFile::AtomicFile(AtomicFile &&other) noexcept
    : fd(other.fd), renamed(other.renamed),
      finalPath(std::move(other.finalPath)), tmp(std::move(other.tmp))
{
    other.fd = -1;
}

AtomicFile &
AtomicFile::operator=(AtomicFile &&other) noexcept
{
    if (this != &other) {
        abandon();
        fd = other.fd;
        renamed = other.renamed;
        finalPath = std::move(other.finalPath);
        tmp = std::move(other.tmp);
        other.fd = -1;
    }
    return *this;
}

Status
AtomicFile::open(const std::string &path)
{
    FO4_ASSERT(fd < 0, "AtomicFile opened twice");
    finalPath = path;
    tmp = tmpPathFor(path);
    renamed = false;
    fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                0644);
    if (fd < 0)
        return ioError(tmp, "cannot create temporary", errno);
    return Status::ok();
}

Status
AtomicFile::write(std::string_view bytes)
{
    FO4_ASSERT(fd >= 0, "write to an AtomicFile that is not open");
    return writeAllStatus(fd, bytes.data(), bytes.size(), tmp);
}

Status
AtomicFile::commit()
{
    FO4_ASSERT(fd >= 0, "commit of an AtomicFile that is not open");
    if (::fsync(fd) != 0) {
        const Status st = ioError(tmp, "fsync failed", errno);
        abandon();
        return st;
    }
    const int closed = ::close(fd);
    const int closeErr = errno;
    fd = -1;
    if (closed != 0 || std::rename(tmp.c_str(), finalPath.c_str()) != 0) {
        const Status st =
            closed != 0 ? ioError(tmp, "close failed", closeErr)
                        : ioError(finalPath, "rename into place failed",
                                  errno);
        ::unlink(tmp.c_str());
        return st;
    }
    renamed = true;
    return fsyncParentDirectory(finalPath);
}

void
AtomicFile::abandon() noexcept
{
    if (fd < 0)
        return;
    ::close(fd);
    fd = -1;
    ::unlink(tmp.c_str());
}

// ---------------------------------------------------------------------
// Frames and framed containers
// ---------------------------------------------------------------------

void
sealFrame(std::string &frame)
{
    FO4_ASSERT(frame.size() >= kFrameHeadBytes &&
                   frame.size() - kFrameHeadBytes <= 0xFFFFFFFFu,
               "frame of %zu bytes cannot be sealed", frame.size());
    auto *head = reinterpret_cast<unsigned char *>(frame.data());
    const std::size_t length = frame.size() - kFrameHeadBytes;
    putU32(head, static_cast<std::uint32_t>(length));
    putU32(head + 4, crc32(head + kFrameHeadBytes, length));
}

std::string
containerHeader(const ContainerFormat &fmt, std::uint64_t word)
{
    FO4_ASSERT(fmt.magic.size() == 8, "container magic must be 8 bytes");
    std::string header(kContainerHeaderBytes, '\0');
    auto *h = reinterpret_cast<unsigned char *>(header.data());
    std::memcpy(h, fmt.magic.data(), 8);
    putU32(h + 8, fmt.version);
    putU64(h + 16, word);
    putU32(h + 24, crc32(h, 24));
    return header;
}

Status
readContainer(const std::string &path, const ContainerFormat &fmt,
              ContainerScan &scan,
              const std::function<void(std::string_view)> &onFrame)
{
    const auto fail = [&](ErrorCode code, const std::string &what) {
        return Status(code, strprintf("%s '%s'%s", fmt.noun,
                                      path.c_str(), what.c_str()));
    };

    std::string data;
    if (const int err = readWholeFile(path, data))
        return fail(fmt.io, strprintf(": cannot read: %s",
                                      std::strerror(err)));
    const auto *bytes = reinterpret_cast<const unsigned char *>(data.data());

    if (data.size() < kContainerHeaderBytes) {
        return fail(fmt.format,
                    strprintf(" is truncated: %zu bytes, shorter than "
                              "the %zu-byte header",
                              data.size(), kContainerHeaderBytes));
    }
    if (std::memcmp(bytes, fmt.magic.data(), 8) != 0) {
        return fail(fmt.format,
                    strprintf(": bad magic (not a %s file)", fmt.noun));
    }
    if (const std::uint32_t version = getU32(bytes + 8);
        version != fmt.version) {
        return fail(fmt.format,
                    strprintf(" has unsupported version %u (this build "
                              "speaks %u)",
                              version, fmt.version));
    }
    if (const std::uint32_t stored = getU32(bytes + 24);
        stored != crc32(bytes, 24)) {
        return fail(fmt.corrupt,
                    strprintf(": header CRC mismatch (stored %08x, "
                              "computed %08x)",
                              stored, crc32(bytes, 24)));
    }

    scan = ContainerScan{};
    scan.word = getU64(bytes + 16);
    scan.validBytes = kContainerHeaderBytes;
    std::size_t offset = kContainerHeaderBytes;
    for (std::size_t frame = 0; offset < data.size(); ++frame) {
        // An incomplete trailing frame — head or payload cut short by
        // a crash mid-append — is the one tolerated damage.
        const std::size_t remaining = data.size() - offset;
        if (remaining < kFrameHeadBytes) {
            scan.tornTail = true;
            break;
        }
        const FrameHead head = decodeFrameHead(bytes + offset);
        // The bound comes before the torn-tail comparison: a rotted
        // length word must not be misread as "tail cut short".
        if (head.length < fmt.minFrame || head.length > fmt.maxFrame) {
            return fail(fmt.corrupt,
                        strprintf(": frame %zu declares %u payload "
                                  "bytes, outside [%u, %u] — refused "
                                  "before allocation",
                                  frame, head.length, fmt.minFrame,
                                  fmt.maxFrame));
        }
        if (remaining - kFrameHeadBytes < head.length) {
            scan.tornTail = true;
            break;
        }
        // A complete frame whose payload fails its CRC is not a torn
        // append; it is rot inside acknowledged data.
        const unsigned char *payload = bytes + offset + kFrameHeadBytes;
        if (const std::uint32_t computed = crc32(payload, head.length);
            computed != head.crc) {
            return fail(fmt.corrupt,
                        strprintf(": frame %zu CRC mismatch at offset "
                                  "%zu (stored %08x, computed %08x)",
                                  frame, offset, head.crc, computed));
        }
        onFrame(std::string_view(reinterpret_cast<const char *>(payload),
                                 head.length));
        offset += kFrameHeadBytes + head.length;
        scan.validBytes = offset;
    }
    return Status::ok();
}

} // namespace fo4::util
