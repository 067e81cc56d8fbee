#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace opdvfs {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: `t[0]` is the classic byte table, and `t[k][b]`
 * is the CRC of byte `b` followed by `k` zero bytes, so one step folds
 * eight input bytes with eight independent lookups.
 */
constexpr Tables
buildTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr Tables kTables = buildTables();

/** Four input bytes as a little-endian word. */
std::uint32_t
loadLittle32(const unsigned char *bytes)
{
    std::uint32_t word;
    std::memcpy(&word, bytes, sizeof word);
    if constexpr (std::endian::native == std::endian::big)
        word = (word >> 24) | ((word >> 8) & 0xFF00u)
               | ((word << 8) & 0xFF0000u) | (word << 24);
    return word;
}

} // namespace

void
Crc32::update(std::string_view bytes)
{
    const auto *p = reinterpret_cast<const unsigned char *>(bytes.data());
    std::size_t left = bytes.size();
    std::uint32_t crc = state_;
    for (; left >= 8; p += 8, left -= 8) {
        std::uint32_t low = loadLittle32(p) ^ crc;
        std::uint32_t high = loadLittle32(p + 4);
        crc = kTables[7][low & 0xFFu] ^ kTables[6][(low >> 8) & 0xFFu]
              ^ kTables[5][(low >> 16) & 0xFFu] ^ kTables[4][low >> 24]
              ^ kTables[3][high & 0xFFu] ^ kTables[2][(high >> 8) & 0xFFu]
              ^ kTables[1][(high >> 16) & 0xFFu] ^ kTables[0][high >> 24];
    }
    for (; left > 0; ++p, --left)
        crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    state_ = crc;
}

std::uint32_t
crc32(std::string_view bytes)
{
    Crc32 crc;
    crc.update(bytes);
    return crc.value();
}

} // namespace opdvfs
