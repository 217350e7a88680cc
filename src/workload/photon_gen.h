// Synthetic ROSAT All-Sky Survey photon stream. The paper evaluates on
// real RASS data obtained from MPE; this generator substitutes a synthetic
// stream with the same DTD —
//
//   photon { phc, coord { cel { ra, dec }, det { dx, dy } }, en, det_time }
//
// and controllable characteristics: uniform sky positions with optional
// hot regions (supernova remnants are bright, so selections on their boxes
// see elevated selectivity), energies in the ROSAT band, and a
// monotonically increasing detection time with configurable mean
// increment. The sharing algorithms only see schema, frequencies, value
// ranges and selectivities, all of which this generator reproduces.

#ifndef STREAMSHARE_WORKLOAD_PHOTON_GEN_H_
#define STREAMSHARE_WORKLOAD_PHOTON_GEN_H_

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "engine/item.h"
#include "engine/record.h"
#include "xml/schema.h"

namespace streamshare::workload {

struct SkyBox {
  double ra_min = 0.0;
  double ra_max = 360.0;
  double dec_min = -90.0;
  double dec_max = 90.0;
};

struct PhotonGenConfig {
  uint64_t seed = 42;
  /// Weighted hot regions; a photon falls into region i with probability
  /// weight_i / (Σ weights + base_weight), otherwise anywhere in the sky.
  std::vector<SkyBox> hot_regions;
  std::vector<double> hot_weights;
  double base_weight = 4.0;
  /// ROSAT PSPC energy band, keV.
  double en_min = 0.1;
  double en_max = 2.4;
  /// det_time advances by an exponentially distributed increment with
  /// this mean per photon.
  double det_time_increment_mean = 0.5;
  /// Stream item frequency (items/s) used for statistics.
  double frequency_hz = 100.0;
};

/// The text of a photon field value with `decimals` fixed digits:
/// byte for byte printf's "%.*f" in the C locale, which std::to_chars is
/// specified to match, written into `buffer` without printf's format
/// parsing and locale machinery. Empty when the text does not fit (64
/// bytes hold every photon field).
std::string_view FormatFixed(double value, int decimals,
                             std::span<char> buffer);

class PhotonGenerator {
 public:
  explicit PhotonGenerator(PhotonGenConfig config);

  /// Generates the next photon as a compact record (det_time strictly
  /// increasing) — no DOM tree is built.
  engine::PhotonRecord NextRecord();

  /// Generates the next photon item: the materialized tree of
  /// NextRecord(), for consumers that need a DOM.
  engine::ItemPtr Next();

  /// Generates `count` photons.
  std::vector<engine::ItemPtr> Generate(size_t count);

  /// Generates `count` photons straight into record batches of
  /// `batch_size` (the allocation-free feed for batched runs).
  std::vector<engine::ItemBatch> GenerateBatches(size_t count,
                                                 size_t batch_size);

  const PhotonGenConfig& config() const { return config_; }

  /// The photon stream schema with occurrence and average-size statistics
  /// matching this generator's output.
  static std::shared_ptr<const xml::StreamSchema> Schema();

 private:
  PhotonGenConfig config_;
  std::mt19937_64 rng_;
  double det_time_ = 0.0;
};

}  // namespace streamshare::workload

#endif  // STREAMSHARE_WORKLOAD_PHOTON_GEN_H_
