/**
 * @file
 * Durability primitives: the write-ahead journal's corruption matrix —
 * every way a file can be damaged maps to either a clean recovery (the
 * one crash-legitimate state, a torn trailing record) or a typed
 * refusal — and the atomic CSV writer's publish-all-or-nothing
 * contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/csv.hh"
#include "util/journal.hh"
#include "util/status.hh"

using namespace fo4;

namespace
{

std::string
tempPath(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/" + name;
    std::remove(path.c_str());
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spew(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** A journal with `n` records "record-0".."record-<n-1>". */
std::string
makeJournal(const std::string &name, std::uint64_t fingerprint,
            int records)
{
    const std::string path = tempPath(name);
    auto writer = util::JournalWriter::create(path, fingerprint);
    for (int i = 0; i < records; ++i)
        writer.append("record-" + std::to_string(i));
    writer.close();
    return path;
}

/** Patch `bytes` back into a consistent header CRC (bytes [0, 24)). */
void
fixHeaderCrc(std::string &bytes)
{
    const std::uint32_t crc = util::crc32(bytes.data(), 24);
    bytes[24] = static_cast<char>(crc);
    bytes[25] = static_cast<char>(crc >> 8);
    bytes[26] = static_cast<char>(crc >> 16);
    bytes[27] = static_cast<char>(crc >> 24);
}

util::ErrorCode
readError(const std::string &path)
{
    try {
        util::readJournal(path);
    } catch (const util::JournalError &e) {
        return e.code();
    }
    return util::ErrorCode::Ok;
}

} // namespace

TEST(Crc32, MatchesIeeeCheckValue)
{
    // The standard CRC-32 check value for "123456789".
    EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
    // Chaining across a split equals one pass over the whole buffer.
    const std::uint32_t first = util::crc32("12345", 5);
    EXPECT_EQ(util::crc32("6789", 4, first), 0xCBF43926u);
}

TEST(Journal, RoundTripPreservesRecordsAndFingerprint)
{
    const auto path = makeJournal("journal_roundtrip.j", 0xfeedface, 3);
    const auto contents = util::readJournal(path);
    EXPECT_EQ(contents.fingerprint, 0xfeedfaceu);
    ASSERT_EQ(contents.records.size(), 3u);
    EXPECT_EQ(contents.records[0], "record-0");
    EXPECT_EQ(contents.records[2], "record-2");
    EXPECT_FALSE(contents.tornTail);
    EXPECT_EQ(contents.validBytes, slurp(path).size());
    std::remove(path.c_str());
}

TEST(Journal, EmptyPayloadAndBinaryPayloadSurvive)
{
    const std::string path = tempPath("journal_binary.j");
    auto writer = util::JournalWriter::create(path, 1);
    writer.append("");
    writer.append(std::string("\x00\xff\n\x01", 4));
    writer.close();
    const auto contents = util::readJournal(path);
    ASSERT_EQ(contents.records.size(), 2u);
    EXPECT_EQ(contents.records[0], "");
    EXPECT_EQ(contents.records[1], std::string("\x00\xff\n\x01", 4));
    std::remove(path.c_str());
}

TEST(Journal, MissingFileIsJournalIo)
{
    const auto path = tempPath("journal_missing.j");
    EXPECT_FALSE(util::journalExists(path));
    EXPECT_EQ(readError(path), util::ErrorCode::JournalIo);
}

TEST(Journal, TruncatedHeaderIsJournalFormat)
{
    const auto path = tempPath("journal_shortheader.j");
    spew(path, "");
    EXPECT_EQ(readError(path), util::ErrorCode::JournalFormat);
    spew(path, "FO4JRNL\n\x01\x00");
    EXPECT_EQ(readError(path), util::ErrorCode::JournalFormat);
    std::remove(path.c_str());
}

TEST(Journal, BadMagicIsJournalFormat)
{
    const auto path = tempPath("journal_badmagic.j");
    spew(path, std::string(64, 'x'));
    EXPECT_EQ(readError(path), util::ErrorCode::JournalFormat);
    std::remove(path.c_str());
}

TEST(Journal, VersionMismatchIsJournalFormat)
{
    const auto path = makeJournal("journal_version.j", 7, 1);
    auto bytes = slurp(path);
    bytes[8] = 99; // format version field
    fixHeaderCrc(bytes); // keep the header itself self-consistent
    spew(path, bytes);
    EXPECT_EQ(readError(path), util::ErrorCode::JournalFormat);
    std::remove(path.c_str());
}

TEST(Journal, HeaderBitRotIsJournalCorrupt)
{
    const auto path = makeJournal("journal_headerrot.j", 7, 1);
    auto bytes = slurp(path);
    bytes[16] = static_cast<char>(bytes[16] ^ 0x40); // fingerprint byte
    spew(path, bytes); // header CRC now disagrees
    EXPECT_EQ(readError(path), util::ErrorCode::JournalCorrupt);
    std::remove(path.c_str());
}

TEST(Journal, MidFileFlipIsJournalCorruptNotTornTail)
{
    const auto path = makeJournal("journal_midflip.j", 7, 3);
    auto bytes = slurp(path);
    // Flip one payload byte of the *first* record: frame complete, CRC
    // wrong — bit rot, not a crash artifact, so the journal is refused.
    bytes[32 + 8 + 2] = static_cast<char>(bytes[32 + 8 + 2] ^ 0x01);
    spew(path, bytes);
    EXPECT_EQ(readError(path), util::ErrorCode::JournalCorrupt);
    std::remove(path.c_str());
}

TEST(Journal, RottedLengthWordIsCorruptNotTornTail)
{
    const auto path = makeJournal("journal_rotlen.j", 7, 3);
    auto bytes = slurp(path);
    // Rot the high byte of the *first* record's length word.  The
    // declared frame now runs past the end of the file, which a reader
    // without a length bound would take for a torn tail — and appendTo
    // would then truncate all three acknowledged records.
    bytes[32 + 3] = static_cast<char>(0x40);
    spew(path, bytes);
    EXPECT_EQ(readError(path), util::ErrorCode::JournalCorrupt);
    std::remove(path.c_str());
}

TEST(Journal, GoldenBytesOfATwoRecordJournal)
{
    // Header (magic, version 2, flags, fingerprint, header CRC,
    // reserved) then two `u32 len | u32 crc | payload` frames.
    const std::string golden(
        "\x46\x4f\x34\x4a\x52\x4e\x4c\x0a\x02\x00\x00\x00"
        "\x00\x00\x00\x00\xef\xcd\xab\x89\x67\x45\x23\x01"
        "\x7a\xe7\x90\xfa\x00\x00\x00\x00\x05\x00\x00\x00"
        "\x6a\x39\xe0\xd0\x61\x6c\x70\x68\x61\x04\x00\x00"
        "\x00\x63\x04\x91\x8f\x62\x65\x74\x61",
        57);
    const auto path = tempPath("journal_golden.j");
    auto writer = util::JournalWriter::create(path, 0x0123456789abcdefull);
    writer.append("alpha");
    writer.append("beta");
    writer.close();
    EXPECT_EQ(slurp(path), golden);
    std::remove(path.c_str());
}

TEST(Journal, TornTrailingRecordRecoversAndAppendResumes)
{
    const auto path = makeJournal("journal_torn.j", 7, 3);
    const auto intact = slurp(path);

    // A crash mid-append can tear the new frame at any byte: a lone
    // length byte, a full length word with half a CRC, or a complete
    // frame header whose payload never finished.  Every such tail must
    // recover to the 3 intact records.
    const std::vector<std::string> tails = {
        std::string("\x08", 1),
        std::string("\x08\x00\x00\x00\xaa\xbb", 6),
        std::string("\x08\x00\x00\x00\xaa\xbb\xcc\xdd"
                    "rec",
                    11),
    };
    for (std::size_t i = 0; i < tails.size(); ++i) {
        spew(path, intact + tails[i]);
        const auto contents = util::readJournal(path);
        EXPECT_TRUE(contents.tornTail) << "tail=" << i;
        ASSERT_EQ(contents.records.size(), 3u) << "tail=" << i;
        EXPECT_EQ(contents.validBytes, intact.size()) << "tail=" << i;
    }

    // appendTo truncates the tail and continues on a record boundary.
    {
        auto recovered = util::readJournal(path);
        auto writer = util::JournalWriter::appendTo(path, recovered);
        writer.append("record-3");
        writer.close();
    }
    const auto contents = util::readJournal(path);
    EXPECT_FALSE(contents.tornTail);
    ASSERT_EQ(contents.records.size(), 4u);
    EXPECT_EQ(contents.records[3], "record-3");
    std::remove(path.c_str());
}

TEST(Journal, CreateReplacesExistingFileAtomically)
{
    const auto path = makeJournal("journal_replace.j", 1, 2);
    auto writer = util::JournalWriter::create(path, 2);
    writer.close();
    const auto contents = util::readJournal(path);
    EXPECT_EQ(contents.fingerprint, 2u);
    EXPECT_TRUE(contents.records.empty());
    std::remove(path.c_str());
}

TEST(AtomicCsv, FileAppearsOnlyOnCommit)
{
    const auto path = tempPath("atomic.csv");
    {
        util::AtomicCsvFile csv(path);
        csv.writeRow({"a", "b"});
        csv.writeRow({"1", "two,with comma"});
        // Mid-write: rows live in the temporary, the destination does
        // not exist — a reader can never observe a partial file.
        EXPECT_TRUE(std::ifstream(csv.tempPath()).is_open());
        EXPECT_FALSE(std::ifstream(path).is_open());
        csv.commit();
        EXPECT_TRUE(csv.committed());
    }
    EXPECT_EQ(slurp(path), "a,b\n1,\"two,with comma\"\n");
    std::remove(path.c_str());
}

TEST(AtomicCsv, AbandonedWriterLeavesNothingBehind)
{
    const auto path = tempPath("atomic_abandoned.csv");
    std::string tmp;
    {
        util::AtomicCsvFile csv(path);
        csv.writeRow({"partial"});
        tmp = csv.tempPath();
        // No commit: simulates a crash/exception mid-write.
    }
    EXPECT_FALSE(std::ifstream(path).is_open());
    EXPECT_FALSE(std::ifstream(tmp).is_open());
}

TEST(AtomicCsv, CommitReplacesPreviousComplete)
{
    const auto path = tempPath("atomic_replace.csv");
    {
        util::AtomicCsvFile csv(path);
        csv.writeRow({"old"});
        csv.commit();
    }
    {
        util::AtomicCsvFile csv(path);
        csv.writeRow({"new"});
        csv.commit();
    }
    EXPECT_EQ(slurp(path), "new\n");
    std::remove(path.c_str());
}

TEST(AtomicCsv, UnwritableDirectoryIsTypedJournalIo)
{
    try {
        util::AtomicCsvFile csv("/nonexistent-dir-fo4/out.csv");
        FAIL() << "expected JournalError";
    } catch (const util::JournalError &e) {
        EXPECT_EQ(e.code(), util::ErrorCode::JournalIo);
    }
}

// ---------------------------------------------------------------------
// Injected disk faults (the ENOSPC/short-write seam)
// ---------------------------------------------------------------------

namespace
{

/** Scoped disk-fault hook: fault every write to `path`, clear on exit. */
class ScopedDiskFault
{
  public:
    ScopedDiskFault(std::string path, util::DiskFault fault)
    {
        util::setDiskFaultHook(
            [path = std::move(path),
             fault](const std::string &p)
                -> std::optional<util::DiskFault> {
                if (p == path)
                    return fault;
                return std::nullopt;
            });
    }
    ~ScopedDiskFault() { util::setDiskFaultHook(nullptr); }
};

} // namespace

TEST(Journal, TryAppendSurfacesEnospcAsTypedStatus)
{
    const auto path = makeJournal("journal_enospc.j", 7, 2);
    auto recovered = util::readJournal(path);
    auto writer = util::JournalWriter::appendTo(path, recovered);

    {
        ScopedDiskFault fault(path, util::DiskFault{}); // immediate ENOSPC
        const util::Status st = writer.tryAppend("doomed-record");
        ASSERT_FALSE(st.isOk());
        EXPECT_EQ(st.code(), util::ErrorCode::JournalIo);
        // The status carries enough to act on: the file and the cause.
        EXPECT_NE(st.message().find(path), std::string::npos);
        EXPECT_NE(st.message().find("No space left"), std::string::npos);
    }

    // The fault cleared: the same writer appends again, and recovery
    // sees the 2 intact records plus the new one — the failed append
    // left at most a torn tail, which append-time truncation and
    // recovery both discard.
    writer.append("record-after-fault");
    writer.close();
    const auto contents = util::readJournal(path);
    ASSERT_GE(contents.records.size(), 3u);
    EXPECT_EQ(contents.records.back(), "record-after-fault");
    std::remove(path.c_str());
}

TEST(Journal, ShortWriteLandsAPrefixThenFailsTyped)
{
    const auto path = makeJournal("journal_shortwrite.j", 7, 3);
    const auto intactBytes = slurp(path).size();
    auto recovered = util::readJournal(path);
    auto writer = util::JournalWriter::appendTo(path, recovered);

    {
        // The disk fills 5 bytes into the frame: a torn tail on disk.
        ScopedDiskFault fault(
            path, util::DiskFault{.failErrno = 28, .shortWriteBytes = 5});
        const util::Status st = writer.tryAppend("never-completes");
        ASSERT_FALSE(st.isOk());
        EXPECT_EQ(st.code(), util::ErrorCode::JournalIo);
    }
    writer.close();

    // Exactly the crash-legitimate state: recovery reports a torn tail
    // and the full intact prefix — nothing corrupt, nothing lost.
    const auto contents = util::readJournal(path);
    EXPECT_TRUE(contents.tornTail);
    ASSERT_EQ(contents.records.size(), 3u);
    EXPECT_EQ(contents.validBytes, intactBytes);
    std::remove(path.c_str());
}

TEST(Journal, ThrowingAppendCarriesTheSameTypedCode)
{
    const auto path = makeJournal("journal_throwing.j", 7, 1);
    auto recovered = util::readJournal(path);
    auto writer = util::JournalWriter::appendTo(path, recovered);
    ScopedDiskFault fault(path, util::DiskFault{});
    try {
        writer.append("doomed");
        FAIL() << "append under ENOSPC succeeded";
    } catch (const util::JournalError &e) {
        EXPECT_EQ(e.code(), util::ErrorCode::JournalIo);
    }
    std::remove(path.c_str());
}

TEST(AtomicCsv, DiskFaultIsTypedAndCommitRefuses)
{
    const auto path = tempPath("atomic_enospc.csv");
    util::AtomicCsvFile csv(path);
    ASSERT_TRUE(csv.tryWriteRow({"landed", "row"}).isOk());

    {
        ScopedDiskFault fault(csv.tempPath(), util::DiskFault{});
        const util::Status st = csv.tryWriteRow({"doomed", "row"});
        ASSERT_FALSE(st.isOk());
        EXPECT_EQ(st.code(), util::ErrorCode::JournalIo);
        EXPECT_NE(st.message().find("No space left"), std::string::npos);
    }

    // A writer that has lost a row must not publish: commit refuses
    // (all-or-nothing), and the destination never appears.
    const util::Status commit = csv.tryCommit();
    ASSERT_FALSE(commit.isOk());
    EXPECT_EQ(commit.code(), util::ErrorCode::JournalIo);
    EXPECT_FALSE(csv.committed());
    EXPECT_FALSE(std::ifstream(path).is_open());
}

TEST(AtomicCsv, ShortRowWriteAlsoPoisonsTheCommit)
{
    const auto path = tempPath("atomic_shortwrite.csv");
    util::AtomicCsvFile csv(path);
    {
        ScopedDiskFault fault(
            csv.tempPath(),
            util::DiskFault{.failErrno = 28, .shortWriteBytes = 3});
        ASSERT_FALSE(csv.tryWriteRow({"half", "a", "row"}).isOk());
    }
    EXPECT_FALSE(csv.tryCommit().isOk());
    EXPECT_FALSE(std::ifstream(path).is_open());
}
