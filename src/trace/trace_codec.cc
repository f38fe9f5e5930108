#include "trace/trace_codec.hh"

#include <cstring>

#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::trace
{

TraceRecord
packTraceRecord(const isa::MicroOp &op)
{
    TraceRecord r;
    r.seq = op.seq;
    r.pc = op.pc;
    r.addr = op.addr;
    r.src1 = op.src1;
    r.src2 = op.src2;
    r.dst = op.dst;
    r.cls = static_cast<std::uint8_t>(op.cls);
    r.taken = op.taken ? 1 : 0;
    return r;
}

isa::MicroOp
unpackTraceRecord(const TraceRecord &r)
{
    isa::MicroOp op;
    op.seq = r.seq;
    op.pc = r.pc;
    op.addr = r.addr;
    op.src1 = r.src1;
    op.src2 = r.src2;
    op.dst = r.dst;
    op.cls = static_cast<isa::OpClass>(r.cls);
    op.taken = r.taken != 0;
    return op;
}

TraceRecord
decodeTraceRecord(const unsigned char *bytes)
{
    TraceRecord r;
    static_assert(sizeof(TraceRecord) == 32, "on-disk record layout");
    std::memcpy(&r, bytes, sizeof(r));
    return r;
}

void
encodeTraceRecord(const TraceRecord &r, unsigned char *bytes)
{
    std::memcpy(bytes, &r, sizeof(r));
}

void
checkTraceRecord(const TraceRecord &r, const std::string &path,
                 std::size_t index)
{
    if (r.cls >= isa::numOpClasses) {
        throw util::TraceError(
            util::ErrorCode::TraceCorrupt,
            util::strprintf("corrupt trace '%s': record %zu has op class "
                            "%u out of range [0, %d)",
                            path.c_str(), index, r.cls,
                            isa::numOpClasses));
    }
    for (const std::int16_t reg : {r.src1, r.src2, r.dst}) {
        if (reg != isa::noReg && (reg < 0 || reg >= isa::numArchRegs)) {
            throw util::TraceError(
                util::ErrorCode::TraceCorrupt,
                util::strprintf("corrupt trace '%s': record %zu names "
                                "register %d outside [0, %d)",
                                path.c_str(), index, reg,
                                isa::numArchRegs));
        }
    }
}

void
appendCheckedRecords(const unsigned char *bytes, std::size_t size,
                     const std::string &path,
                     std::vector<isa::MicroOp> &out)
{
    const std::size_t recordBytes = sizeof(TraceRecord);
    const std::size_t leftover = size % recordBytes;
    const std::size_t records = size / recordBytes;
    if (leftover != 0) {
        throw util::TraceError(
            util::ErrorCode::TraceCorrupt,
            util::strprintf("trace file '%s' is truncated: %ld stray "
                            "bytes after %ld complete records",
                            path.c_str(), static_cast<long>(leftover),
                            static_cast<long>(out.size() + records)));
    }
    out.reserve(out.size() + records);
    for (std::size_t i = 0; i < records; ++i) {
        const TraceRecord r = decodeTraceRecord(bytes + i * recordBytes);
        checkTraceRecord(r, path, out.size());
        out.push_back(unpackTraceRecord(r));
    }
}

} // namespace fo4::trace
