// PhotonRecord round-trip contract: a conforming photon converts to a
// record and back to a byte-identical tree with matching serialized size
// and content hash; non-conforming items are rejected by FromXml (the
// batch fallback slot); and the wire codec's record fast path produces
// byte-identical frames and identical dictionary state to encoding the
// materialized tree.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/codec.h"
#include "engine/operator.h"
#include "engine/record.h"
#include "workload/photon_gen.h"
#include "xml/xml_node.h"
#include "xml/xml_writer.h"

namespace streamshare::engine {
namespace {

std::unique_ptr<xml::XmlNode> FullPhoton(
    const char* phc = "7", const char* ra = "120.5000",
    const char* dec = "-30.2500", const char* dx = "12", const char* dy = "400",
    const char* en = "1.250", const char* det_time = "3.5") {
  auto node = std::make_unique<xml::XmlNode>("photon");
  node->AddLeaf("phc", phc);
  auto* coord = node->AddChild("coord");
  auto* cel = coord->AddChild("cel");
  cel->AddLeaf("ra", ra);
  cel->AddLeaf("dec", dec);
  auto* det = coord->AddChild("det");
  det->AddLeaf("dx", dx);
  det->AddLeaf("dy", dy);
  node->AddLeaf("en", en);
  node->AddLeaf("det_time", det_time);
  return node;
}

void ExpectRoundTrip(const xml::XmlNode& tree) {
  PhotonRecord record;
  ASSERT_TRUE(PhotonRecord::FromXml(tree, &record))
      << xml::WriteCompact(tree);
  std::unique_ptr<xml::XmlNode> back = record.MaterializeXml();
  EXPECT_EQ(xml::WriteCompact(*back), xml::WriteCompact(tree));
  EXPECT_EQ(record.SerializedSize(), tree.SerializedSize());
  EXPECT_EQ(record.ContentHash(), HashItemContent(tree));
}

TEST(PhotonRecordTest, FullPhotonRoundTripsByteIdentically) {
  ExpectRoundTrip(*FullPhoton());
}

TEST(PhotonRecordTest, GeneratorPhotonsRoundTrip) {
  workload::PhotonGenerator gen(workload::PhotonGenConfig{});
  for (int i = 0; i < 200; ++i) {
    PhotonRecord record = gen.NextRecord();
    std::unique_ptr<xml::XmlNode> tree = record.MaterializeXml();
    ExpectRoundTrip(*tree);
    EXPECT_EQ(record.SerializedSize(), tree->SerializedSize());
    EXPECT_EQ(record.ContentHash(), HashItemContent(*tree));
  }
}

TEST(PhotonRecordTest, SubsequenceOfFieldsRoundTrips) {
  // Children may be any subsequence of the schema: photons missing
  // fields, or whole structural subtrees, still convert.
  auto only_en = std::make_unique<xml::XmlNode>("photon");
  only_en->AddLeaf("en", "1.5");
  ExpectRoundTrip(*only_en);

  auto no_det = std::make_unique<xml::XmlNode>("photon");
  no_det->AddLeaf("phc", "3");
  auto* coord = no_det->AddChild("coord");
  coord->AddChild("cel")->AddLeaf("ra", "10.0");
  no_det->AddLeaf("det_time", "0.5");
  ExpectRoundTrip(*no_det);

  // Empty structural elements are presence, not absence.
  auto empty_coord = std::make_unique<xml::XmlNode>("photon");
  empty_coord->AddChild("coord");
  ExpectRoundTrip(*empty_coord);

  ExpectRoundTrip(xml::XmlNode("photon"));
}

TEST(PhotonRecordTest, LeafTextIsKeptVerbatim) {
  // Decimal::Parse trims, but the record must reproduce the original
  // bytes (byte accounting and hashes depend on it).
  auto tree = std::make_unique<xml::XmlNode>("photon");
  tree->AddLeaf("en", "  1.50 ");
  ExpectRoundTrip(*tree);
}

TEST(PhotonRecordTest, RejectsNonConformingItems) {
  PhotonRecord out;

  // Wrong root element.
  auto wagg = std::make_unique<xml::XmlNode>("wagg");
  wagg->AddLeaf("seq", "1");
  EXPECT_FALSE(PhotonRecord::FromXml(*wagg, &out));

  // Children out of document order.
  auto reordered = std::make_unique<xml::XmlNode>("photon");
  reordered->AddLeaf("en", "1.0");
  reordered->AddLeaf("phc", "1");
  EXPECT_FALSE(PhotonRecord::FromXml(*reordered, &out));

  // Duplicated child.
  auto duplicated = std::make_unique<xml::XmlNode>("photon");
  duplicated->AddLeaf("en", "1.0");
  duplicated->AddLeaf("en", "2.0");
  EXPECT_FALSE(PhotonRecord::FromXml(*duplicated, &out));

  // Unknown child name.
  auto unknown = std::make_unique<xml::XmlNode>("photon");
  unknown->AddLeaf("energy", "1.0");
  EXPECT_FALSE(PhotonRecord::FromXml(*unknown, &out));

  // Text on a structural node.
  auto structural_text = std::make_unique<xml::XmlNode>("photon");
  structural_text->AddChild("coord")->set_text("oops");
  EXPECT_FALSE(PhotonRecord::FromXml(*structural_text, &out));

  // Leaf with element children.
  auto deep_leaf = std::make_unique<xml::XmlNode>("photon");
  deep_leaf->AddChild("en")->AddLeaf("x", "1");
  EXPECT_FALSE(PhotonRecord::FromXml(*deep_leaf, &out));

  // Non-decimal leaf text.
  auto bad_text = std::make_unique<xml::XmlNode>("photon");
  bad_text->AddLeaf("en", "not-a-number");
  EXPECT_FALSE(PhotonRecord::FromXml(*bad_text, &out));

  // Over-long leaf text.
  auto long_text = std::make_unique<xml::XmlNode>("photon");
  long_text->AddLeaf("en", "1." + std::string(40, '0'));
  EXPECT_FALSE(PhotonRecord::FromXml(*long_text, &out));
}

TEST(PhotonRecordTest, RejectionLeavesOutputUntouched) {
  PhotonRecord out;
  ASSERT_TRUE(PhotonRecord::FromXml(*FullPhoton(), &out));
  uint16_t mask_before = out.mask();
  auto bad = std::make_unique<xml::XmlNode>("photon");
  bad->AddLeaf("en", "nope");
  EXPECT_FALSE(PhotonRecord::FromXml(*bad, &out));
  EXPECT_EQ(out.mask(), mask_before);
}

TEST(ItemBatchTest, AdoptionSplitsConformingFromOpaque) {
  std::vector<ItemPtr> items;
  items.push_back(MakeItem(FullPhoton()));
  auto wagg = std::make_unique<xml::XmlNode>("wagg");
  wagg->AddLeaf("seq", "0");
  items.push_back(MakeItem(std::move(wagg)));

  ItemBatch batch = ItemBatch::FromItems(items, /*adopt=*/true);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch.slot(0).is_record);
  // Adoption keeps the original tree as the ready-made materialization.
  EXPECT_EQ(batch.slot(0).item.get(), items[0].get());
  EXPECT_EQ(batch.Materialize(0).get(), items[0].get());
  EXPECT_FALSE(batch.slot(1).is_record);
  EXPECT_EQ(batch.slot(1).item.get(), items[1].get());

  ItemBatch plain = ItemBatch::FromItems(items, /*adopt=*/false);
  EXPECT_FALSE(plain.slot(0).is_record);
}

TEST(ItemBatchTest, MaterializationIsCachedPerSlot) {
  ItemBatch batch;
  workload::PhotonGenerator gen(workload::PhotonGenConfig{});
  batch.AppendRecord(gen.NextRecord());
  EXPECT_EQ(batch.slot(0).item, nullptr);
  const ItemPtr& first = batch.Materialize(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(batch.Materialize(0).get(), first.get());
}

TEST(ItemBatchTest, MakeOpaqueMaterializesRecordSlotsKeepingStamps) {
  ItemBatch batch;
  workload::PhotonGenerator gen(workload::PhotonGenConfig{});
  PhotonRecord record = gen.NextRecord();
  batch.AppendRecord(record);
  batch.slot(0).stamp.ingress_us = 42;
  batch.MakeOpaque();
  ASSERT_FALSE(batch.slot(0).is_record);
  ASSERT_NE(batch.slot(0).item, nullptr);
  EXPECT_TRUE(batch.slot(0).item->Equals(*record.MaterializeXml()));
  EXPECT_EQ(batch.slot(0).stamp.ingress_us, 42u);
}

TEST(PhotonRecordTest, ProjectionMatchesTreeProjection) {
  PhotonRecord record;
  ASSERT_TRUE(PhotonRecord::FromXml(*FullPhoton(), &record));

  std::vector<xml::Path> paths;
  paths.push_back(xml::Path::Parse("coord/cel/ra").value());
  paths.push_back(xml::Path::Parse("en").value());
  uint16_t mask = CompileProjectionMask(paths);
  PhotonRecord projected = record.Project(mask);
  EXPECT_EQ(
      xml::WriteCompact(*projected.MaterializeXml()),
      "<photon><coord><cel><ra>120.5000</ra></cel></coord>"
      "<en>1.250</en></photon>");

  // A structural output path keeps the whole subtree.
  std::vector<xml::Path> subtree{xml::Path::Parse("coord/det").value()};
  PhotonRecord det = record.Project(CompileProjectionMask(subtree));
  EXPECT_EQ(xml::WriteCompact(*det.MaterializeXml()),
            "<photon><coord><det><dx>12</dx><dy>400</dy></det>"
            "</coord></photon>");
}

// --- Encoding records: ItemWriter::Record vs a fresh tree encoding. ---

/// ItemWriter::Record of `record`, the encoder every record result runs.
std::string WriteRecord(const PhotonRecord& record) {
  engine::ItemWriter writer;
  std::string bytes;
  writer.Begin(&bytes);
  writer.Record(record, PhotonSchema::kPhoton);
  EXPECT_EQ(writer.xml_size(), record.SerializedSize());
  EXPECT_EQ(writer.content_hash(), record.ContentHash());
  return bytes;
}

std::string FreshTreeEncoding(const PhotonRecord& record) {
  engine::ItemEncoder encoder;
  std::string bytes;
  encoder.Encode(*MakeItem(record.MaterializeXml()), &bytes);
  return bytes;
}

TEST(RecordCodecTest, WriterRecordMatchesTreeEncodingByteForByte) {
  workload::PhotonGenerator gen(workload::PhotonGenConfig{});
  for (int i = 0; i < 50; ++i) {
    PhotonRecord record = gen.NextRecord();
    ASSERT_EQ(WriteRecord(record), FreshTreeEncoding(record))
        << "item " << i;
  }
}

TEST(RecordCodecTest, ProjectedRecordWritesItsTreeEncoding) {
  // A projected record writes a subsequence of the schema's children
  // (here no coord/cel and nothing between coord and en); the bytes are a
  // fresh encoder's, and they decode back to the projected tree.
  PhotonRecord record;
  ASSERT_TRUE(PhotonRecord::FromXml(*FullPhoton(), &record));
  std::vector<xml::Path> paths{xml::Path::Parse("coord/det").value(),
                               xml::Path::Parse("en").value()};
  PhotonRecord projected = record.Project(CompileProjectionMask(paths));

  std::string bytes = WriteRecord(projected);
  EXPECT_EQ(bytes, FreshTreeEncoding(projected));
  engine::ItemDecoder decoder;
  std::unique_ptr<xml::XmlNode> tree;
  ASSERT_TRUE(decoder.Decode(bytes, &tree).ok());
  EXPECT_EQ(xml::WriteCompact(*tree),
            xml::WriteCompact(*projected.MaterializeXml()));
}

}  // namespace
}  // namespace streamshare::engine
