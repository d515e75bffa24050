/**
 * @file
 * Analytical SRAM energy/area model standing in for CACTI.
 *
 * The paper sizes the per-lane flow buffers using CACTI's dynamic
 * read energy and area for 0.5 KB .. 64 KB SRAMs (Fig 14b).  CACTI is
 * not available offline, so this model reproduces the published curve:
 *
 *   read energy (nJ) ~= e0 + e1 * sqrt(KB)     (wordline/bitline term)
 *   area (mm^2)      ~= a0 + a1 * KB           (cell-array dominated)
 *
 * with coefficients fit to the Fig 14b endpoints (64 KB: ~0.065 nJ,
 * ~0.35 mm^2; 0.5 KB: ~0.005 nJ, ~0.003 mm^2).
 */

#ifndef VIP_POWER_SRAM_MODEL_HH
#define VIP_POWER_SRAM_MODEL_HH

#include <cstdint>

namespace vip
{

/** CACTI-like buffer energy/area estimator (32 nm-class process). */
class SramModel
{
  public:
    struct Estimate
    {
        double readEnergyNj;  ///< dynamic energy per 64 B read
        double writeEnergyNj; ///< dynamic energy per 64 B write
        double areaMm2;       ///< total macro area
        double leakageWatts;  ///< standby leakage

        /** Energy (nJ) to read @p bytes from this buffer. */
        double
        readNj(std::uint64_t bytes) const
        {
            return readEnergyNj * accesses(bytes);
        }

        /** Energy (nJ) to write @p bytes into this buffer. */
        double
        writeNj(std::uint64_t bytes) const
        {
            return writeEnergyNj * accesses(bytes);
        }
    };

    /** Estimate for a buffer of @p bytes capacity. */
    static Estimate forCapacity(std::uint64_t bytes);

  private:
    /**
     * 64-byte accesses that move @p bytes, at least one.  Integer
     * rounding equals ceil(bytes / 64.0) for any count below 2^53.
     */
    static double
    accesses(std::uint64_t bytes)
    {
        const std::uint64_t n = (bytes + 63) / 64;
        return static_cast<double>(n > 0 ? n : 1);
    }
};

} // namespace vip

#endif // VIP_POWER_SRAM_MODEL_HH
