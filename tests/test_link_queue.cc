// The bounded MPSC LinkQueue every partitioned-runner worker drains (FIFO
// order, capacity backpressure, per-run stats), and the serial executor's
// round-robin over streams of unequal length.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "engine/executor.h"
#include "engine/link_queue.h"

namespace streamshare {
namespace {

using engine::ItemPtr;
using engine::LinkQueue;
using engine::Operator;

ItemPtr Leaf(const std::string& name, const std::string& text) {
  auto node = std::make_unique<xml::XmlNode>(name);
  node->set_text(text);
  return engine::MakeItem(std::move(node));
}

/// One-item queue entry (the granularity these queue tests exercise).
LinkQueue::Entry SingleEntry(Operator* target, const ItemPtr& item) {
  LinkQueue::Entry entry;
  entry.target = target;
  entry.batch.AppendItem(item, /*adopt=*/false);
  return entry;
}

TEST(LinkQueueTest, BoundedFifoAcrossThreads) {
  LinkQueue queue(/*capacity=*/4);
  engine::OperatorGraph graph;
  Operator* target = graph.Add<engine::PassOp>("t");

  constexpr int kCount = 1000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      queue.Push(SingleEntry(target, Leaf("n", std::to_string(i))));
    }
    queue.Push(LinkQueue::Entry{});  // pill
  });

  std::vector<LinkQueue::Entry> batch;
  int next = 0;
  bool done = false;
  while (!done) {
    batch.clear();
    queue.PopBatch(&batch, 16);
    EXPECT_LE(batch.size(), 16u);
    for (LinkQueue::Entry& entry : batch) {
      if (entry.target == nullptr) {
        done = true;
        continue;
      }
      EXPECT_EQ(entry.batch.Materialize(0)->text(), std::to_string(next));
      ++next;
    }
  }
  producer.join();
  EXPECT_EQ(next, kCount);
  EXPECT_EQ(queue.pushed_count(), static_cast<uint64_t>(kCount + 1));
  // Capacity 4 against 1000 items: the producer must have hit a full
  // queue at least once.
  EXPECT_GT(queue.producer_blocked_ns(), 0u);
}

TEST(LinkQueueTest, PushBatchKeepsOrderAndRespectsCapacity) {
  LinkQueue queue(/*capacity=*/2);
  engine::OperatorGraph graph;
  Operator* target = graph.Add<engine::PassOp>("t");

  std::vector<LinkQueue::Entry> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(SingleEntry(target, Leaf("n", std::to_string(i))));
  }
  std::thread producer([&] { queue.PushBatch(&batch); });

  std::vector<LinkQueue::Entry> out;
  while (out.size() < 100) {
    queue.PopBatch(&out, 7);
  }
  producer.join();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i].batch.Materialize(0)->text(), std::to_string(i));
  }
  EXPECT_TRUE(batch.empty());  // consumed by PushBatch
}

TEST(LinkQueueTest, ResetStatsZeroesEveryCounter) {
  LinkQueue queue(/*capacity=*/4);
  engine::OperatorGraph graph;
  Operator* target = graph.Add<engine::PassOp>("t");

  // First "run": generate some traffic, including a blocked producer.
  std::thread producer([&] {
    for (int i = 0; i < 50; ++i) {
      queue.Push(SingleEntry(target, Leaf("n", std::to_string(i))));
    }
  });
  std::vector<LinkQueue::Entry> batch;
  size_t popped = 0;
  while (popped < 50) {
    batch.clear();
    queue.PopBatch(&batch, 8);
    popped += batch.size();
  }
  producer.join();
  EXPECT_EQ(queue.pushed_count(), 50u);
  EXPECT_GT(queue.max_depth(), 0u);

  // A queue reused for the next run reports per-run stats, not all-time.
  queue.ResetStats();
  EXPECT_EQ(queue.pushed_count(), 0u);
  EXPECT_EQ(queue.producer_blocked_ns(), 0u);
  EXPECT_EQ(queue.consumer_blocked_ns(), 0u);
  EXPECT_EQ(queue.max_depth(), 0u);

  queue.Push(SingleEntry(target, Leaf("n", "after")));
  EXPECT_EQ(queue.pushed_count(), 1u);
  EXPECT_EQ(queue.max_depth(), 1u);
  batch.clear();
  queue.PopBatch(&batch, 8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].batch.Materialize(0)->text(), "after");
}

TEST(RunStreamsTest, SkipsExhaustedStreamsRoundRobin) {
  engine::OperatorGraph graph;
  auto* sink_a = graph.Add<engine::SinkOp>("a", /*keep_items=*/true);
  auto* sink_b = graph.Add<engine::SinkOp>("b", /*keep_items=*/true);
  // Unequal lengths: stream B exhausts first, A must keep flowing.
  std::vector<ItemPtr> a_items, b_items;
  for (int i = 0; i < 5; ++i) a_items.push_back(Leaf("a", std::to_string(i)));
  for (int i = 0; i < 2; ++i) b_items.push_back(Leaf("b", std::to_string(i)));
  std::vector<std::vector<engine::ItemBatch>> streams = {
      engine::ChunkItems(a_items, 1, /*adopt=*/false),
      engine::ChunkItems(b_items, 1, /*adopt=*/false)};
  ASSERT_TRUE(engine::RunBatchStreams({sink_a, sink_b}, &streams).ok());
  ASSERT_EQ(sink_a->item_count(), 5u);
  ASSERT_EQ(sink_b->item_count(), 2u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sink_a->items()[i]->text(), std::to_string(i));
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(sink_b->items()[i]->text(), std::to_string(i));
  }
}

}  // namespace
}  // namespace streamshare
