/**
 * @file
 * Interaction tests between FOR read-ahead and the HDC pinned store
 * inside one controller: pinned blocks must not be duplicated into
 * the read-ahead pool, suffix/prefix trimming must combine with FOR,
 * and budgets must compose.
 */

#include <gtest/gtest.h>

#include <memory>

#include "bus/scsi_bus.hh"
#include "controller/disk_controller.hh"
#include "sim/event_queue.hh"

namespace dtsim {
namespace {

struct Rig
{
    EventQueue eq;
    SerialMerge merge{eq};
    ScsiBus bus;
    DiskParams params;
    std::unique_ptr<DiskController> ctl;
    std::unique_ptr<LayoutBitmap> bitmap;

    explicit Rig(std::uint64_t hdc_bytes)
    {
        ControllerConfig cfg;
        cfg.org = CacheOrg::Block;
        cfg.readAhead = ReadAheadMode::FOR;
        cfg.hdcBytes = hdc_bytes;
        ctl = std::make_unique<DiskController>(merge, bus, params, cfg,
                                               0);
        bitmap = std::make_unique<LayoutBitmap>(params.totalBlocks());
        ctl->setBitmap(bitmap.get());
    }

    ServiceClass
    doRequest(BlockNum start, std::uint64_t count,
              bool write = false)
    {
        ServiceClass served = ServiceClass::Media;
        IoRequest req;
        req.start = start;
        req.count = count;
        req.isWrite = write;
        req.onComplete = [&](const IoRequest& r, Tick) {
            served = r.served;
        };
        ctl->submit(std::move(req));
        eq.run();
        return served;
    }

    /** Mark an n-block file starting at `start`. */
    void
    file(BlockNum start, std::uint64_t n)
    {
        for (BlockNum b = start + 1; b < start + n; ++b)
            bitmap->set(b, true);
    }
};

TEST(ForHdc, PinnedPrefixShortensForMiss)
{
    Rig r(256 * kKiB);
    r.file(1000, 8);
    r.ctl->pinBlock(1000);
    r.ctl->pinBlock(1001);

    // Request the whole file: 2 pinned + 6 media (plus no blind
    // overshoot thanks to FOR).
    EXPECT_EQ(r.doRequest(1000, 8), ServiceClass::Media);
    EXPECT_EQ(r.ctl->stats().hdcHitBlocks, 2u);
    EXPECT_EQ(r.ctl->stats().mediaBlocks, 6u);
    // FOR read-ahead beyond the file end: none (bit 1008 is 0).
    EXPECT_EQ(r.ctl->stats().readAheadBlocks, 0u);
}

TEST(ForHdc, PinnedSuffixTrimmed)
{
    Rig r(256 * kKiB);
    r.file(2000, 8);
    r.ctl->pinBlock(2006);
    r.ctl->pinBlock(2007);
    EXPECT_EQ(r.doRequest(2000, 8), ServiceClass::Media);
    EXPECT_EQ(r.ctl->stats().mediaBlocks, 6u);
    EXPECT_EQ(r.ctl->stats().hdcHitBlocks, 2u);
}

TEST(ForHdc, ReadAheadSkipsNothingButCacheInsertSkipsPinned)
{
    Rig r(256 * kKiB);
    r.file(3000, 8);
    r.ctl->pinBlock(3004);   // Pinned block inside the file.

    // Miss on the file head; FOR reads ahead to the file end (the
    // bitmap does not care about pins), but the pinned block is not
    // duplicated into the read-ahead pool.
    r.doRequest(3000, 2);
    EXPECT_EQ(r.doRequest(3004, 1), ServiceClass::HdcHit);
    // All other read-ahead blocks serve from the pool.
    EXPECT_EQ(r.doRequest(3002, 2), ServiceClass::CacheHit);
    EXPECT_EQ(r.doRequest(3005, 3), ServiceClass::CacheHit);
}

TEST(ForHdc, FullFilePinnedServesEntirelyFromHdc)
{
    Rig r(256 * kKiB);
    r.file(4000, 4);
    for (BlockNum b = 4000; b < 4004; ++b)
        r.ctl->pinBlock(b);
    EXPECT_EQ(r.doRequest(4000, 4), ServiceClass::HdcHit);
    EXPECT_EQ(r.ctl->stats().mediaAccesses, 0u);
}

TEST(ForHdc, BudgetsCompose)
{
    // FOR bitmap + HDC region both carve the same memory; the
    // remaining pool must be exactly usable - hdc - bitmap.
    Rig with_hdc(1 * kMiB);
    const std::uint64_t expect =
        (with_hdc.params.usableCacheBytes() - 1 * kMiB -
         with_hdc.params.bitmapBytes()) /
        with_hdc.params.blockSize;
    EXPECT_EQ(with_hdc.ctl->raCacheBlocks(), expect);
}

TEST(ForHdc, WriteToPinnedInsideFileAbsorbed)
{
    Rig r(256 * kKiB);
    r.file(5000, 4);
    r.ctl->pinBlock(5001);
    // Single-block write to the pinned block: absorbed.
    EXPECT_EQ(r.doRequest(5001, 1, true), ServiceClass::HdcHit);
    // Spanning write including unpinned blocks: media.
    EXPECT_EQ(r.doRequest(5000, 4, true), ServiceClass::Media);
}

} // namespace
} // namespace dtsim
