#include "workload/photon_gen.h"

#include <charconv>
#include <cmath>

namespace streamshare::workload {

std::string_view FormatFixed(double value, int decimals,
                             std::span<char> buffer) {
  std::to_chars_result written =
      std::to_chars(buffer.data(), buffer.data() + buffer.size(), value,
                    std::chars_format::fixed, decimals);
  if (written.ec != std::errc()) return {};
  return std::string_view(buffer.data(), written.ptr - buffer.data());
}

namespace {

void SetDecimalField(engine::PhotonRecord* record, int field,
                     std::string_view text) {
  record->SetField(field, text, *Decimal::Parse(text));
}

void SetFixedField(engine::PhotonRecord* record, int field, double value,
                   int decimals) {
  char buffer[64];
  SetDecimalField(record, field, FormatFixed(value, decimals, buffer));
}

}  // namespace

PhotonGenerator::PhotonGenerator(PhotonGenConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

engine::PhotonRecord PhotonGenerator::NextRecord() {
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // Pick a region: hot regions by weight, otherwise the whole sky.
  double total_weight = config_.base_weight;
  for (double weight : config_.hot_weights) total_weight += weight;
  double pick = unit(rng_) * total_weight;
  SkyBox box;  // whole sky by default
  for (size_t i = 0; i < config_.hot_regions.size(); ++i) {
    double weight =
        i < config_.hot_weights.size() ? config_.hot_weights[i] : 1.0;
    if (pick < weight) {
      box = config_.hot_regions[i];
      break;
    }
    pick -= weight;
  }

  double ra = box.ra_min + unit(rng_) * (box.ra_max - box.ra_min);
  double dec = box.dec_min + unit(rng_) * (box.dec_max - box.dec_min);
  double en =
      config_.en_min + unit(rng_) * (config_.en_max - config_.en_min);
  std::exponential_distribution<double> increment(
      1.0 / config_.det_time_increment_mean);
  det_time_ += std::max(0.1, increment(rng_));
  std::uniform_int_distribution<int> phc_dist(0, 255);
  std::uniform_int_distribution<int> det_pixel(0, 511);

  engine::PhotonRecord record;
  SetDecimalField(&record, engine::PhotonSchema::kFieldPhc,
                  std::to_string(phc_dist(rng_)));
  SetFixedField(&record, engine::PhotonSchema::kFieldRa, ra, 4);
  SetFixedField(&record, engine::PhotonSchema::kFieldDec, dec, 4);
  SetDecimalField(&record, engine::PhotonSchema::kFieldDx,
                  std::to_string(det_pixel(rng_)));
  SetDecimalField(&record, engine::PhotonSchema::kFieldDy,
                  std::to_string(det_pixel(rng_)));
  SetFixedField(&record, engine::PhotonSchema::kFieldEn, en, 3);
  SetFixedField(&record, engine::PhotonSchema::kFieldDetTime, det_time_, 1);
  return record;
}

engine::ItemPtr PhotonGenerator::Next() {
  return engine::MakeItem(NextRecord().MaterializeXml());
}

std::vector<engine::ItemPtr> PhotonGenerator::Generate(size_t count) {
  std::vector<engine::ItemPtr> items;
  items.reserve(count);
  for (size_t i = 0; i < count; ++i) items.push_back(Next());
  return items;
}

std::vector<engine::ItemBatch> PhotonGenerator::GenerateBatches(
    size_t count, size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  std::vector<engine::ItemBatch> batches;
  batches.reserve((count + batch_size - 1) / batch_size);
  for (size_t i = 0; i < count; ++i) {
    if (i % batch_size == 0) {
      batches.emplace_back();
      batches.back().reserve(std::min(batch_size, count - i));
    }
    batches.back().AppendRecord(NextRecord());
  }
  return batches;
}

std::shared_ptr<const xml::StreamSchema> PhotonGenerator::Schema() {
  auto schema = std::make_shared<xml::StreamSchema>("photons", "photon");
  xml::SchemaElement& photon = schema->item();
  photon.AddChild("phc", 1.0, 3.0);
  xml::SchemaElement* coord = photon.AddChild("coord");
  xml::SchemaElement* cel = coord->AddChild("cel");
  cel->AddChild("ra", 1.0, 8.0);
  cel->AddChild("dec", 1.0, 8.0);
  xml::SchemaElement* det = coord->AddChild("det");
  det->AddChild("dx", 1.0, 3.0);
  det->AddChild("dy", 1.0, 3.0);
  photon.AddChild("en", 1.0, 5.0);
  photon.AddChild("det_time", 1.0, 8.0);
  return schema;
}

}  // namespace streamshare::workload
