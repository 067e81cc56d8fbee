/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
 *
 * Eight 256-entry tables, built at compile time, fold eight input bytes
 * per step with independent lookups; only a tail shorter than eight
 * bytes goes byte by byte.  The output is the standard CRC-32 (check
 * value 0xCBF43926), so every stored checksum stays valid.
 *
 * Used as an integrity footer on persisted artefacts (strategy files,
 * cache snapshots, WAL records) and on every wire frame: a partially
 * written or bit-flipped buffer fails its checksum instead of handing
 * a silently truncated struct to the executor.
 */

#ifndef OPDVFS_COMMON_CRC32_H
#define OPDVFS_COMMON_CRC32_H

#include <cstdint>
#include <string_view>

namespace opdvfs {

/** Streaming CRC-32 accumulator. */
class Crc32
{
  public:
    /** Fold @p bytes into the checksum. */
    void update(std::string_view bytes);

    /** Finalised checksum of everything folded so far. */
    std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

  private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/** One-shot CRC-32 of @p bytes. */
std::uint32_t crc32(std::string_view bytes);

} // namespace opdvfs

#endif // OPDVFS_COMMON_CRC32_H
