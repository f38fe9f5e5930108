/**
 * @file
 * The durable-file layer: the one implementation of the on-disk
 * discipline every persistent format in the repo shares (DESIGN.md §8).
 *
 *  - little-endian byte helpers and CRC-32;
 *  - writeAllStatus(), the one write path, under the one DiskFault
 *    test hook;
 *  - readWholeFile(), the one whole-file reader;
 *  - AtomicFile: write `<path>.tmp.<pid>`, fsync, rename over `<path>`,
 *    fsync the parent directory — a reader sees the old file or the
 *    complete new one, never a prefix;
 *  - the frame codec, `u32 payload length | u32 payload CRC32 |
 *    payload`, and the framed container around it: a 32-byte CRC'd
 *    header followed by a stream of frames.
 *
 * The write-ahead journal, the trace capture, the blob store, the
 * atomic CSV writer and the wire protocol are built on these pieces.
 * Each maps failures to its own error type; the codes a failure
 * carries here are the caller's (ContainerFormat) or JournalIo.
 */

#ifndef FO4_UTIL_DURABLE_FILE_HH
#define FO4_UTIL_DURABLE_FILE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.hh"

namespace fo4::util
{

// ---------------------------------------------------------------------
// Little-endian bytes and CRC-32
// ---------------------------------------------------------------------

inline void
putU16(unsigned char *p, std::uint16_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
}

inline void
putU32(unsigned char *p, std::uint32_t v)
{
    putU16(p, static_cast<std::uint16_t>(v));
    putU16(p + 2, static_cast<std::uint16_t>(v >> 16));
}

inline void
putU64(unsigned char *p, std::uint64_t v)
{
    putU32(p, static_cast<std::uint32_t>(v));
    putU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

/** Append `v` to `out` as 4 little-endian bytes. */
inline void
putU32(std::string &out, std::uint32_t v)
{
    unsigned char b[4];
    putU32(b, v);
    out.append(reinterpret_cast<const char *>(b), sizeof(b));
}

/** Append `v` to `out` as 8 little-endian bytes. */
inline void
putU64(std::string &out, std::uint64_t v)
{
    unsigned char b[8];
    putU64(b, v);
    out.append(reinterpret_cast<const char *>(b), sizeof(b));
}

inline std::uint16_t
getU16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

inline std::uint32_t
getU32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(getU16(p)) |
           static_cast<std::uint32_t>(getU16(p + 2)) << 16;
}

inline std::uint64_t
getU64(const unsigned char *p)
{
    return static_cast<std::uint64_t>(getU32(p)) |
           static_cast<std::uint64_t>(getU32(p + 4)) << 32;
}

/** CRC-32 (IEEE 802.3, reflected); chainable via `crc`. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t crc = 0);

// ---------------------------------------------------------------------
// Writing and reading whole files
// ---------------------------------------------------------------------

/**
 * One injected disk fault: the write lands `shortWriteBytes` bytes for
 * real (modelling a partial write as the disk fills), then fails with
 * `failErrno`.  The default is an immediate ENOSPC.
 */
struct DiskFault
{
    int failErrno = 28; // ENOSPC
    std::size_t shortWriteBytes = 0;
};

/**
 * Process-wide hook consulted by writeAllStatus(), and so by every
 * durable write (journal appends, AtomicFile temporaries).  Return a
 * fault to inject for writes to `path`, nullopt to let the write
 * proceed.  Test seam only; pass nullptr to clear.  Not thread-safe
 * against concurrent writers — install before the writers start.
 */
using DiskFaultHook =
    std::function<std::optional<DiskFault>(const std::string &path)>;
void setDiskFaultHook(DiskFaultHook hook);

/**
 * Write all `size` bytes to `fd` (EINTR-safe), honouring the disk-fault
 * hook.  Returns Ok or a JournalIo Status naming `path`, the errno text
 * and how many bytes actually landed.
 */
Status writeAllStatus(int fd, const void *data, std::size_t size,
                      const std::string &path);

/** Read all of `path` into `out`.  Returns 0, or the errno of the
 *  failed open or read. */
int readWholeFile(const std::string &path, std::string &out);

/**
 * Atomic publication of one file.  open() creates the temporary
 * `<path>.tmp.<pid>` — the pid keeps two processes publishing into one
 * directory off each other's temporaries — write() appends to it, and
 * commit() fsyncs, renames it over `<path>` and fsyncs the parent
 * directory.  An AtomicFile destroyed (or abandoned) before commit()
 * unlinks its temporary, so an aborted writer publishes nothing.
 *
 * Every failure is a JournalIo Status naming the file.  A commit() that
 * fails before the rename also removes the temporary; one that fails
 * after it (the directory fsync) has published the file, which
 * published() reports.
 */
class AtomicFile
{
  public:
    /** The temporary a publication of `path` writes first. */
    static std::string tmpPathFor(const std::string &path);

    AtomicFile() = default;
    AtomicFile(AtomicFile &&other) noexcept;
    AtomicFile &operator=(AtomicFile &&other) noexcept;
    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;
    ~AtomicFile() { abandon(); }

    /** Create (truncating) the temporary for `path`. */
    Status open(const std::string &path);

    /** Append to the temporary through writeAllStatus (the disk-fault
     *  hook sees tmpPath()). */
    Status write(std::string_view bytes);

    /** fsync, close, rename into place, fsync the parent directory. */
    Status commit();

    /** Close and unlink the temporary; a no-op when nothing is open. */
    void abandon() noexcept;

    bool isOpen() const { return fd >= 0; }
    bool published() const { return renamed; }
    const std::string &path() const { return finalPath; }
    const std::string &tmpPath() const { return tmp; }

  private:
    int fd = -1;
    bool renamed = false;
    std::string finalPath;
    std::string tmp;
};

// ---------------------------------------------------------------------
// Frames and framed containers
// ---------------------------------------------------------------------

/** `u32 payload length | u32 payload CRC32` ahead of every payload. */
constexpr std::size_t kFrameHeadBytes = 8;

/**
 * Seal a frame built in place: `frame` holds kFrameHeadBytes of
 * placeholder followed by the payload; fills in the head.
 */
void sealFrame(std::string &frame);

struct FrameHead
{
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
};

inline FrameHead
decodeFrameHead(const unsigned char *head)
{
    return {getU32(head), getU32(head + 4)};
}

/** Bytes of a framed container's header. */
constexpr std::size_t kContainerHeaderBytes = 32;

/**
 * One framed container format.  The header is
 *
 *     [0, 8)   magic
 *     [8, 12)  format version
 *     [12, 16) flags (zero)
 *     [16, 24) a u64 word the format defines
 *     [24, 28) CRC32 of bytes [0, 24)
 *     [28, 32) reserved (zero)
 *
 * and the frame bounds are format constants: a length word outside
 * [minFrame, maxFrame] is rot, refused before any allocation or
 * torn-tail comparison.
 */
struct ContainerFormat
{
    /** Names the file in messages ("journal", "capture"). */
    const char *noun;
    /** Exactly 8 bytes. */
    std::string_view magic;
    std::uint32_t version;
    std::uint32_t minFrame;
    std::uint32_t maxFrame;
    /** The caller's codes for unreadable, foreign and damaged files. */
    ErrorCode io;
    ErrorCode format;
    ErrorCode corrupt;
};

/** The 32-byte header of a new container carrying `word`. */
std::string containerHeader(const ContainerFormat &fmt,
                            std::uint64_t word);

/** What a container read learned besides its frames. */
struct ContainerScan
{
    /** The header's u64 word. */
    std::uint64_t word = 0;
    /** True if the file ends in an incomplete frame (a crash
     *  mid-append), which was discarded. */
    bool tornTail = false;
    /** File offset where the last complete frame ends. */
    std::uint64_t validBytes = 0;
};

/**
 * Read and verify the container at `path`, handing each complete,
 * CRC-verified frame payload to `onFrame` in file order.  The header
 * is checked size, magic, version, then CRC — so a file from another
 * build version is a format error, not rot.  Returns Ok, or a Status
 * carrying one of `fmt`'s codes:
 *
 *  - io: the file cannot be opened or read;
 *  - format: shorter than the header, bad magic, or another version;
 *  - corrupt: header CRC mismatch, a length word outside the frame
 *    bounds, or a complete frame whose payload fails its CRC.
 *
 * An incomplete trailing frame is not an error: it sets tornTail.
 * Errors `onFrame` throws propagate unchanged.
 */
Status readContainer(const std::string &path, const ContainerFormat &fmt,
                     ContainerScan &scan,
                     const std::function<void(std::string_view)> &onFrame);

} // namespace fo4::util

#endif // FO4_UTIL_DURABLE_FILE_HH
