#include "trace/capture.hh"

#include "trace/trace_codec.hh"
#include "util/durable_file.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::trace
{

namespace
{

/** 'M' / 'O' / 'E' frames; the header's u64 word is unused (zero). */
constexpr util::ContainerFormat kCaptureFormat = {
    .noun = "capture",
    .magic = "FO4CAPTR",
    .version = kCaptureVersion,
    .minFrame = 1,
    .maxFrame = kMaxCaptureFrame,
    .io = util::ErrorCode::TraceIo,
    .format = util::ErrorCode::TraceFormat,
    .corrupt = util::ErrorCode::TraceCorrupt,
};

[[noreturn]] void
throwCorrupt(const std::string &message)
{
    throw util::TraceError(util::ErrorCode::TraceCorrupt, message);
}

/** A failed AtomicFile step is a capture I/O error. */
void
throwIfIoError(const util::Status &st)
{
    if (!st.isOk())
        throw util::TraceError(util::ErrorCode::TraceIo, st.message());
}

std::string
serializeMeta(const CaptureMeta &meta)
{
    std::string text;
    for (const auto &[key, value] : meta) {
        if (key.empty() || key.find('=') != std::string::npos ||
            key.find('\n') != std::string::npos) {
            throw util::ConfigError(util::strprintf(
                "capture meta key '%s' must be non-empty and free of "
                "'=' and newlines",
                key.c_str()));
        }
        if (value.find('\n') != std::string::npos) {
            throw util::ConfigError(util::strprintf(
                "capture meta value for '%s' must not contain newlines",
                key.c_str()));
        }
        text += key;
        text += '=';
        text += value;
        text += '\n';
    }
    return text;
}

void
parseMeta(const unsigned char *body, std::size_t size,
          const std::string &path, CaptureMeta &meta)
{
    std::size_t lineStart = 0;
    for (std::size_t i = 0; i <= size; ++i) {
        if (i < size && body[i] != '\n')
            continue;
        if (i == size && lineStart == size)
            break; // text ended cleanly on a newline
        const std::string line(reinterpret_cast<const char *>(body) +
                                   lineStart,
                               i - lineStart);
        const std::size_t eq = line.find('=');
        if (i == size || eq == std::string::npos || eq == 0) {
            throwCorrupt(util::strprintf(
                "capture '%s': malformed meta frame line '%s'",
                path.c_str(), line.c_str()));
        }
        meta.emplace_back(line.substr(0, eq), line.substr(eq + 1));
        lineStart = i + 1;
    }
}

} // namespace

CaptureContents
readCapture(const std::string &path)
{
    CaptureContents out;
    std::size_t frame = 0;
    util::ContainerScan scan;
    const util::Status st = util::readContainer(
        path, kCaptureFormat, scan, [&](std::string_view payload) {
            if (out.finalized) {
                throwCorrupt(util::strprintf(
                    "capture '%s': frame %zu follows the end frame",
                    path.c_str(), frame));
            }
            const auto *body =
                reinterpret_cast<const unsigned char *>(payload.data()) + 1;
            const std::size_t bodyLen = payload.size() - 1;
            switch (payload[0]) {
            case 'M':
                parseMeta(body, bodyLen, path, out.meta);
                break;
            case 'O':
                appendCheckedRecords(body, bodyLen, path, out.ops);
                break;
            case 'E': {
                if (bodyLen != 8) {
                    throwCorrupt(util::strprintf(
                        "capture '%s': malformed end frame (%zu body "
                        "bytes, expected 8)",
                        path.c_str(), bodyLen));
                }
                const std::uint64_t declared = util::getU64(body);
                if (declared != out.ops.size()) {
                    throwCorrupt(util::strprintf(
                        "capture '%s': end frame declares %llu records "
                        "but %zu were read",
                        path.c_str(),
                        static_cast<unsigned long long>(declared),
                        out.ops.size()));
                }
                out.finalized = true;
                break;
            }
            default:
                throwCorrupt(util::strprintf(
                    "capture '%s': unknown frame kind 0x%02x in frame %zu",
                    path.c_str(), static_cast<unsigned char>(payload[0]),
                    frame));
            }
            ++frame;
        });
    if (!st.isOk())
        throw util::TraceError(st.code(), st.message());
    out.tornTail = scan.tornTail;
    return out;
}

CaptureWriter
CaptureWriter::create(const std::string &path, const CaptureMeta &meta,
                      std::size_t opsPerFrame)
{
    if (opsPerFrame == 0)
        throw util::ConfigError("capture opsPerFrame must be positive");
    // An op frame is the kind byte plus the batch; the writer must not
    // publish a frame its own reader refuses.
    if (opsPerFrame > (kMaxCaptureFrame - 1) / sizeof(TraceRecord)) {
        throw util::ConfigError(util::strprintf(
            "capture opsPerFrame %zu exceeds the %zu records one "
            "%u-byte frame holds",
            opsPerFrame, (kMaxCaptureFrame - 1) / sizeof(TraceRecord),
            kMaxCaptureFrame));
    }
    const std::string metaText = serializeMeta(meta); // validate first

    CaptureWriter w(opsPerFrame);
    throwIfIoError(w.file.open(path));
    w.write(util::containerHeader(kCaptureFormat, 0));
    w.writeFrame('M', metaText);
    return w;
}

CaptureWriter::CaptureWriter(std::size_t opsPerFrame)
    : opsPerFrame(opsPerFrame)
{
}

void
CaptureWriter::write(std::string_view bytes)
{
    const util::Status st = file.write(bytes);
    if (!st.isOk()) {
        file.abandon();
        throwIfIoError(st);
    }
}

void
CaptureWriter::writeFrame(char kind, std::string_view body)
{
    std::string frame(util::kFrameHeadBytes, '\0');
    frame += kind;
    frame.append(body);
    util::sealFrame(frame);
    write(frame);
}

void
CaptureWriter::flushOps()
{
    if (pending.empty())
        return;
    writeFrame('O', pending);
    pending.clear();
}

void
CaptureWriter::append(const isa::MicroOp &op)
{
    if (!file.isOpen())
        throw util::ConfigError("append to a closed capture writer");
    const std::size_t tail = pending.size();
    pending.resize(tail + sizeof(TraceRecord));
    encodeTraceRecord(packTraceRecord(op),
                      reinterpret_cast<unsigned char *>(pending.data()) +
                          tail);
    ++count;
    if (pending.size() >= opsPerFrame * sizeof(TraceRecord))
        flushOps();
}

void
CaptureWriter::close()
{
    if (!file.isOpen())
        throw util::ConfigError("capture writer already closed");
    if (count == 0) {
        file.abandon();
        throw util::ConfigError("recording an empty trace");
    }
    flushOps();
    std::string end;
    util::putU64(end, count);
    writeFrame('E', end);
    throwIfIoError(file.commit());
}

} // namespace fo4::trace
