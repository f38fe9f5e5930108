#include "mem/cache.hh"

#include <bit>

#include "util/logging.hh"

namespace fo4::mem
{

namespace
{

bool
isPowerOfTwo(std::uint64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

util::Status
CacheParams::validate() const
{
    util::ErrorCollector errs;
    if (!isPowerOfTwo(lineBytes))
        errs.addf("line size %u not a power of two", lineBytes);
    if (associativity < 1)
        errs.addf("associativity %u below one", associativity);
    if (lineBytes > 0 && associativity >= 1) {
        if (capacityBytes % (std::uint64_t(lineBytes) * associativity) != 0) {
            errs.addf("capacity %llu not divisible into %u-way sets of "
                      "%u-byte lines",
                      static_cast<unsigned long long>(capacityBytes),
                      associativity, lineBytes);
        } else if (!isPowerOfTwo(sets())) {
            errs.addf("set count %llu not a power of two",
                      static_cast<unsigned long long>(sets()));
        }
    }
    return errs.status(util::ErrorCode::InvalidConfig);
}

Cache::Cache(const CacheParams &params)
    : prm(params)
{
    if (const auto st = prm.validate(); !st.isOk())
        throw util::ConfigError("cache geometry: " + st.message());
    lines.resize(prm.sets() * prm.associativity);
    // Both are powers of two (validated), so the per-access address split
    // is a shift and a mask rather than three 64-bit divisions.
    lineShift = static_cast<unsigned>(std::countr_zero(prm.lineBytes));
    setMask = prm.sets() - 1;
}

std::uint64_t
Cache::lineAddr(std::uint64_t addr) const
{
    return addr >> lineShift;
}

std::uint64_t
Cache::setIndex(std::uint64_t addr) const
{
    return lineAddr(addr) & setMask;
}

bool
Cache::access(std::uint64_t addr, bool write)
{
    ++useClock;
    const std::uint64_t tag = lineAddr(addr);
    Line *base = &lines[setIndex(addr) * prm.associativity];

    Line *victim = base;
    for (std::uint32_t way = 0; way < prm.associativity; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock;
            line.dirty |= write;
            ++hits_;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++misses_;
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lastUse = useClock;
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t tag = lineAddr(addr);
    const Line *base = &lines[setIndex(addr) * prm.associativity];
    for (std::uint32_t way = 0; way < prm.associativity; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines)
        line = Line{};
}

} // namespace fo4::mem
