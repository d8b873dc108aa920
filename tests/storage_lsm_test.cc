#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <span>
#include <thread>

#include "adm/json.h"
#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/lsm_dataset.h"

namespace idea::storage {
namespace {

using adm::Value;

adm::Datatype SimpleType() {
  return adm::Datatype("T", {{"id", adm::FieldType::kInt64, false}});
}

Value Rec(int64_t id, const std::string& payload = "p") {
  return Value::MakeObject({{"id", Value::MakeInt(id)},
                            {"payload", Value::MakeString(payload)}});
}

TEST(LsmDatasetTest, InsertGetScan) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Insert(Rec(2)).ok());
  ASSERT_TRUE(ds.Insert(Rec(1)).ok());
  auto got = ds.Get(Value::MakeInt(1));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->GetField("payload")->AsString(), "p");
  auto snap = ds.Scan();
  ASSERT_EQ(snap->size(), 2u);
  // Scan is key-ordered.
  EXPECT_EQ((*snap)[0].GetField("id")->AsInt(), 1);
}

TEST(LsmDatasetTest, DuplicateInsertFails) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Insert(Rec(1)).ok());
  EXPECT_EQ(ds.Insert(Rec(1)).code(), StatusCode::kAlreadyExists);
}

TEST(LsmDatasetTest, UpsertReplaces) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Upsert(Rec(1, "old")).ok());
  ASSERT_TRUE(ds.Upsert(Rec(1, "new")).ok());
  EXPECT_EQ(ds.Get(Value::MakeInt(1))->GetField("payload")->AsString(), "new");
  EXPECT_EQ(ds.LiveRecordCount(), 1u);
}

TEST(LsmDatasetTest, DeleteMasksRecord) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Insert(Rec(1)).ok());
  ASSERT_TRUE(ds.Delete(Value::MakeInt(1)).ok());
  EXPECT_TRUE(ds.Get(Value::MakeInt(1)).status().IsNotFound());
  EXPECT_EQ(ds.LiveRecordCount(), 0u);
  EXPECT_TRUE(ds.Delete(Value::MakeInt(1)).IsNotFound());
  // Re-insert after delete works.
  EXPECT_TRUE(ds.Insert(Rec(1)).ok());
}

TEST(LsmDatasetTest, MissingPrimaryKeyRejected) {
  LsmDataset ds("d", SimpleType(), "id");
  Value bad = Value::MakeObject({{"payload", Value::MakeString("x")}});
  EXPECT_FALSE(ds.Upsert(bad).ok());
}

TEST(LsmDatasetTest, DatatypeValidationApplies) {
  LsmDataset ds("d",
                adm::Datatype("T", {{"id", adm::FieldType::kInt64, false},
                                    {"when", adm::FieldType::kDateTime, false}}),
                "id");
  Value rec = Value::MakeObject({{"id", Value::MakeInt(1)},
                                 {"when", Value::MakeString("2019-01-01T00:00:00Z")}});
  ASSERT_TRUE(ds.Insert(rec).ok());
  EXPECT_TRUE(ds.Get(Value::MakeInt(1))->GetField("when")->IsDateTime());
  Value bad = Value::MakeObject({{"id", Value::MakeInt(2)},
                                 {"when", Value::MakeString("garbage")}});
  EXPECT_TRUE(ds.Insert(bad).IsTypeMismatch());
}

TEST(LsmDatasetTest, FlushAndCompaction) {
  DatasetOptions opts;
  opts.memtable_bytes = 2048;  // tiny: force flushes
  opts.compaction_threshold = 3;
  LsmDataset ds("d", SimpleType(), "id", opts);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(ds.Upsert(Rec(i, std::string(32, 'x'))).ok());
  }
  DatasetStats stats = ds.stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_LE(ds.ComponentCount(), opts.compaction_threshold + 1);
  // All records remain visible through the merged read path.
  EXPECT_EQ(ds.LiveRecordCount(), 500u);
  for (int64_t i = 0; i < 500; i += 97) {
    EXPECT_TRUE(ds.Get(Value::MakeInt(i)).ok()) << i;
  }
}

TEST(LsmDatasetTest, NewestVersionWinsAcrossComponents) {
  DatasetOptions opts;
  opts.memtable_bytes = 1024;
  LsmDataset ds("d", SimpleType(), "id", opts);
  for (int round = 0; round < 5; ++round) {
    std::string payload = "v";
    payload += std::to_string(round);
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(ds.Upsert(Rec(i, payload)).ok());
    }
  }
  EXPECT_EQ(ds.LiveRecordCount(), 50u);
  EXPECT_EQ(ds.Get(Value::MakeInt(7))->GetField("payload")->AsString(), "v4");
}

TEST(LsmDatasetTest, WalRecordsAndFlushes) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Insert(Rec(1)).ok());
  ASSERT_TRUE(ds.Upsert(Rec(1, "u")).ok());
  ASSERT_TRUE(ds.Delete(Value::MakeInt(1)).ok());
  WalStats before = ds.wal_stats();
  EXPECT_EQ(before.appends, 3u);
  EXPECT_GT(before.unflushed_bytes, 0u);
  ASSERT_TRUE(ds.FlushWal().ok());
  WalStats after = ds.wal_stats();
  EXPECT_EQ(after.flushes, 1u);
  EXPECT_EQ(after.unflushed_bytes, 0u);
}

TEST(WalTest, ReadAllRoundTrips) {
  Wal wal;
  WalRecord r1{WalRecordType::kInsert, 1, Value::MakeInt(5), Rec(5)};
  WalRecord r2{WalRecordType::kDelete, 2, Value::MakeInt(5), Value()};
  ASSERT_TRUE(wal.Append(r1).ok());
  ASSERT_TRUE(wal.Append(r2).ok());
  ASSERT_TRUE(wal.Flush().ok());
  auto records = wal.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kInsert);
  EXPECT_EQ((*records)[0].record, r1.record);
  EXPECT_EQ((*records)[1].type, WalRecordType::kDelete);
  EXPECT_EQ((*records)[1].key.AsInt(), 5);
}

TEST(WalTest, FileBackedLog) {
  std::string path = ::testing::TempDir() + "/idea_wal_test.log";
  auto wal = Wal::OpenFile(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append({WalRecordType::kUpsert, 1, Value::MakeInt(1), Rec(1)}).ok());
  ASSERT_TRUE((*wal)->Flush().ok());
  EXPECT_EQ((*wal)->stats().flushes, 1u);
}

TEST(LsmDatasetTest, ConcurrentReadersAndWriter) {
  LsmDataset ds("d", SimpleType(), "id");
  for (int64_t i = 0; i < 100; ++i) ASSERT_TRUE(ds.Upsert(Rec(i)).ok());
  std::atomic<uint64_t> reads{0};
  std::thread writer([&] {
    for (int64_t i = 0; i < 1000; ++i) {
      std::string payload = "w";
      payload += std::to_string(i);
      (void)ds.Upsert(Rec(i % 100, payload));
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        auto snap = ds.Scan();
        EXPECT_EQ(snap->size(), 100u);
        reads.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
}

std::string Payload(uint64_t n) {
  std::string payload = "p";
  payload += std::to_string(n);
  return payload;
}

std::vector<std::string> Rendered(const std::vector<Value>& records) {
  std::vector<std::string> out;
  for (const Value& rec : records) out.push_back(rec.ToString());
  return out;
}

/// Runs a seeded Insert/Upsert/Delete mix through a tiny memtable with a
/// compaction threshold of 2, so every few writes flush and most flushes
/// compact, and checks each read path against a std::map model along the
/// way. With `btree`, a secondary index on `payload` makes every upsert take
/// the old-version lookup; without it, upserts skip that lookup.
void CheckAgainstModel(bool btree) {
  DatasetOptions opts;
  opts.memtable_bytes = 1024;
  opts.compaction_threshold = 2;
  LsmDataset ds("model", SimpleType(), "id", opts);
  if (btree) {
    ASSERT_TRUE(ds.CreateIndex("by_payload", "payload", "btree").ok());
  }

  constexpr int64_t kKeys = 300;
  constexpr uint64_t kPayloads = 20;
  std::map<int64_t, std::string> model;  // live id -> payload
  std::vector<DatasetChange> changes;    // every committed write, in order
  Rng rng(20260417);

  auto check = [&] {
    auto snapshot = ds.Scan();
    std::vector<std::string> want;
    for (const auto& [id, payload] : model) want.push_back(Rec(id, payload).ToString());
    ASSERT_EQ(Rendered(*snapshot), want);
    for (int64_t id = 0; id < kKeys; ++id) {
      auto got = ds.Get(Value::MakeInt(id));
      auto it = model.find(id);
      if (it == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << id;
      } else {
        ASSERT_TRUE(got.ok()) << id;
        EXPECT_EQ(*got, Rec(id, it->second)) << id;
      }
    }
    EXPECT_EQ(ds.LiveRecordCount(), model.size());
    ASSERT_EQ(ds.CurrentSeq(), changes.size());
    std::vector<DatasetChange> delta;
    ASSERT_TRUE(ds.ScanDelta(0, ds.CurrentSeq(), &delta).ok());
    ASSERT_EQ(delta.size(), changes.size());
    for (size_t i = 0; i < delta.size(); ++i) {
      EXPECT_EQ(delta[i].seqno, changes[i].seqno);
      EXPECT_EQ(delta[i].tombstone, changes[i].tombstone);
      EXPECT_EQ(delta[i].key, changes[i].key);
      EXPECT_EQ(delta[i].record, changes[i].record);
    }
    if (btree) {
      for (uint64_t n = 0; n < kPayloads; ++n) {
        std::vector<Value> hits;
        ASSERT_TRUE(ds.ProbeIndexEquals("payload", Value::MakeString(Payload(n)), &hits)
                        .ok());
        std::vector<std::string> want_hits;
        for (const auto& [id, payload] : model) {
          if (payload == Payload(n)) want_hits.push_back(Rec(id, payload).ToString());
        }
        std::vector<std::string> got_hits = Rendered(hits);
        std::sort(got_hits.begin(), got_hits.end());
        std::sort(want_hits.begin(), want_hits.end());
        EXPECT_EQ(got_hits, want_hits) << Payload(n);
      }
    }
  };

  for (int op = 1; op <= 4000; ++op) {
    const int64_t id = static_cast<int64_t>(rng.NextBelow(kKeys));
    const std::string payload = Payload(rng.NextBelow(kPayloads));
    const bool live = model.count(id) > 0;
    const uint64_t seq = changes.size() + 1;
    switch (rng.NextBelow(3)) {
      case 0: {
        Status st = ds.Insert(Rec(id, payload));
        if (live) {
          EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << op;
          break;
        }
        ASSERT_TRUE(st.ok()) << op << ": " << st.ToString();
        model[id] = payload;
        changes.push_back({seq, false, Value::MakeInt(id), Rec(id, payload)});
        break;
      }
      case 1:
        ASSERT_TRUE(ds.Upsert(Rec(id, payload)).ok()) << op;
        model[id] = payload;
        changes.push_back({seq, false, Value::MakeInt(id), Rec(id, payload)});
        break;
      default: {
        Status st = ds.Delete(Value::MakeInt(id));
        if (!live) {
          EXPECT_TRUE(st.IsNotFound()) << op;
          break;
        }
        ASSERT_TRUE(st.ok()) << op << ": " << st.ToString();
        model.erase(id);
        changes.push_back({seq, true, Value::MakeInt(id), Value()});
        break;
      }
    }
    if (op % 500 == 0) check();
  }
  DatasetStats stats = ds.stats();
  EXPECT_GE(stats.flushes, 48u);
  EXPECT_GE(stats.compactions, 24u);
  EXPECT_LE(ds.ComponentCount(), opts.compaction_threshold);
}

TEST(LsmDatasetTest, MatchesAMapModelThroughFlushesAndCompactions) {
  CheckAgainstModel(/*btree=*/false);
}

TEST(LsmDatasetTest, MatchesAMapModelWithABTreeIndex) {
  CheckAgainstModel(/*btree=*/true);
}

TEST(LsmDatasetTest, UpsertBatchMatchesPerRecordUpserts) {
  DatasetOptions opts;
  opts.memtable_bytes = 2048;
  opts.compaction_threshold = 2;
  opts.changelog_capacity = 4096;
  LsmDataset batched("batched", SimpleType(), "id", opts);
  LsmDataset single("single", SimpleType(), "id", opts);
  std::vector<Value> records;
  for (int64_t i = 0; i < 1500; ++i) records.push_back(Rec(i % 173, Payload(i)));

  for (const Value& rec : records) ASSERT_TRUE(single.Upsert(rec).ok());
  std::vector<Value> consumed = records;
  for (size_t begin = 0; begin < consumed.size(); begin += 37) {
    const size_t len = std::min<size_t>(37, consumed.size() - begin);
    size_t applied = 0;
    ASSERT_TRUE(batched.UpsertBatch(std::span(consumed).subspan(begin, len), &applied).ok());
    EXPECT_EQ(applied, len);
  }

  EXPECT_EQ(Rendered(*batched.Scan()), Rendered(*single.Scan()));
  auto batched_wal = batched.ReadWal();
  auto single_wal = single.ReadWal();
  ASSERT_TRUE(batched_wal.ok() && single_wal.ok());
  ASSERT_EQ(batched_wal->size(), single_wal->size());
  for (size_t i = 0; i < single_wal->size(); ++i) {
    const WalRecord& b = (*batched_wal)[i];
    const WalRecord& s = (*single_wal)[i];
    EXPECT_EQ(b.type, s.type);
    EXPECT_EQ(b.seqno, s.seqno);
    EXPECT_EQ(b.key, s.key);
    EXPECT_EQ(b.record, s.record);
  }
  ASSERT_EQ(batched.CurrentSeq(), single.CurrentSeq());
  std::vector<DatasetChange> batched_delta, single_delta;
  ASSERT_TRUE(batched.ScanDelta(0, batched.CurrentSeq(), &batched_delta).ok());
  ASSERT_TRUE(single.ScanDelta(0, single.CurrentSeq(), &single_delta).ok());
  ASSERT_EQ(batched_delta.size(), single_delta.size());
  for (size_t i = 0; i < single_delta.size(); ++i) {
    EXPECT_EQ(batched_delta[i].seqno, single_delta[i].seqno);
    EXPECT_EQ(batched_delta[i].tombstone, single_delta[i].tombstone);
    EXPECT_EQ(batched_delta[i].key, single_delta[i].key);
    EXPECT_EQ(batched_delta[i].record, single_delta[i].record);
  }
  const DatasetStats b = batched.stats();
  const DatasetStats s = single.stats();
  EXPECT_EQ(b.inserts, s.inserts);
  EXPECT_EQ(b.upserts, s.upserts);
  EXPECT_EQ(b.deletes, s.deletes);
  EXPECT_EQ(b.point_lookups, s.point_lookups);
  EXPECT_EQ(b.scans, s.scans);
  EXPECT_EQ(b.flushes, s.flushes);
  EXPECT_EQ(b.compactions, s.compactions);
  EXPECT_EQ(b.index_probes, s.index_probes);
  EXPECT_EQ(b.delta_scans, s.delta_scans);
  EXPECT_EQ(b.delta_wraps, s.delta_wraps);
  EXPECT_GT(s.flushes, 0u);
  EXPECT_GT(s.compactions, 0u);
}

TEST(LsmDatasetTest, UpsertBatchStopsAtTheFirstFailingRecord) {
  // `id` is optional in the datatype, so a record without it passes
  // validation and fails on the primary key, inside the lock hold.
  const adm::Datatype type("T", {{"id", adm::FieldType::kInt64, true},
                                 {"when", adm::FieldType::kDateTime, false}});
  auto rec = [](int64_t id) {
    return Value::MakeObject({{"id", Value::MakeInt(id)},
                              {"when", Value::MakeString("2019-01-01T00:00:00Z")}});
  };
  struct Case {
    const char* name;
    Value bad;
    StatusCode code;
  };
  const Case cases[] = {
      {"invalid", Value::MakeObject({{"id", Value::MakeInt(4)},
                                     {"when", Value::MakeString("garbage")}}),
       StatusCode::kTypeMismatch},
      {"keyless", Value::MakeObject({{"when", Value::MakeString("2019-01-01T00:00:00Z")}}),
       StatusCode::kInvalidArgument},
  };
  constexpr size_t kBad = 4;
  for (const Case& c : cases) {
    LsmDataset ds("d", type, "id");
    std::vector<Value> batch;
    for (int64_t i = 0; i < 10; ++i) {
      batch.push_back(static_cast<size_t>(i) == kBad ? c.bad : rec(i));
    }
    size_t applied = 99;
    Status st = ds.UpsertBatch(batch, &applied);
    EXPECT_EQ(st.code(), c.code) << c.name << ": " << st.ToString();
    EXPECT_EQ(applied, kBad) << c.name;
    EXPECT_EQ(ds.LiveRecordCount(), kBad) << c.name;
    EXPECT_EQ(ds.CurrentSeq(), kBad) << c.name;
    for (int64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(ds.Get(Value::MakeInt(i)).ok(), static_cast<size_t>(i) < kBad)
          << c.name << " " << i;
    }
  }
}

TEST(LsmDatasetTest, ConcurrentBatchWritersAndReaders) {
  DatasetOptions opts;
  opts.memtable_bytes = 2048;
  opts.compaction_threshold = 2;
  opts.changelog_capacity = 512;  // small enough that readers see wraps too
  LsmDataset ds("d", SimpleType(), "id", opts);
  constexpr int kBatches = 40;
  constexpr int64_t kBatch = 25;
  constexpr int64_t kKeysPerWriter = 200;
  std::atomic<bool> done{false};
  // Writer `parity` owns the keys with that parity, so the two writers'
  // batches interleave key-wise in every memtable and component.
  auto writer = [&](int64_t parity) {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Value> batch;
      for (int64_t j = 0; j < kBatch; ++j) {
        const int64_t slot = (b * kBatch + j) % kKeysPerWriter;
        batch.push_back(Rec(2 * slot + parity, Payload(b)));
      }
      size_t applied = 0;
      EXPECT_TRUE(ds.UpsertBatch(batch, &applied).ok());
      EXPECT_EQ(applied, static_cast<size_t>(kBatch));
      if (b % 8 == 7) {
        EXPECT_TRUE(ds.FlushMemTable().ok());
      }
    }
  };
  auto reader = [&] {
    while (!done.load()) {
      uint64_t seq = 0;
      auto snapshot = ds.Scan(&seq);
      for (size_t i = 1; i < snapshot->size(); ++i) {
        ASSERT_LT((*snapshot)[i - 1].GetField("id")->AsInt(),
                  (*snapshot)[i].GetField("id")->AsInt());
      }
      const uint64_t now = ds.CurrentSeq();
      ASSERT_GE(now, seq);
      std::vector<DatasetChange> delta;
      Status st = ds.ScanDelta(seq, now, &delta);
      if (st.ok()) {
        EXPECT_EQ(delta.size(), now - seq);
      } else {
        EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      }
      auto got = ds.Get(Value::MakeInt(static_cast<int64_t>(seq % (2 * kKeysPerWriter))));
      EXPECT_TRUE(got.ok() || got.status().IsNotFound());
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(writer, 0);
  threads.emplace_back(writer, 1);
  std::thread r1(reader), r2(reader);
  for (auto& t : threads) t.join();
  done.store(true);
  r1.join();
  r2.join();
  EXPECT_EQ(ds.CurrentSeq(), 2u * kBatches * kBatch);
  EXPECT_EQ(ds.LiveRecordCount(), static_cast<size_t>(2 * kKeysPerWriter));
  EXPECT_GT(ds.stats().flushes, 0u);
  EXPECT_GT(ds.stats().compactions, 0u);
}

TEST(CatalogTest, LifecycleAndLookup) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDatatype(SimpleType()).ok());
  EXPECT_TRUE(catalog.CreateDatatype(SimpleType()).code() == StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog.CreateDataset("D1", "T", "id").ok());
  EXPECT_TRUE(catalog.CreateDataset("D1", "T", "id").code() ==
              StatusCode::kAlreadyExists);
  EXPECT_FALSE(catalog.CreateDataset("D2", "NoType", "id").ok());
  EXPECT_TRUE(catalog.HasDataset("D1"));
  EXPECT_NE(catalog.FindDataset("D1"), nullptr);
  EXPECT_EQ(catalog.DatasetNames().size(), 1u);
  ASSERT_TRUE(catalog.DropDataset("D1").ok());
  EXPECT_FALSE(catalog.HasDataset("D1"));
  EXPECT_TRUE(catalog.DropDataset("D1").IsNotFound());
}

TEST(CatalogAccessorTest, EpochCaching) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDatatype(SimpleType()).ok());
  ASSERT_TRUE(catalog.CreateDataset("D", "T", "id").ok());
  auto ds = catalog.FindDataset("D");
  ASSERT_TRUE(ds->Upsert(Rec(1)).ok());

  CatalogAccessor cached(&catalog, /*cache=*/true);
  auto snap1 = cached.GetSnapshot("D");
  ASSERT_TRUE(snap1.ok());
  EXPECT_EQ((*snap1)->size(), 1u);
  ASSERT_TRUE(ds->Upsert(Rec(2)).ok());
  // Same epoch: cached snapshot, update invisible.
  EXPECT_EQ((*cached.GetSnapshot("D"))->size(), 1u);
  cached.BeginEpoch();
  EXPECT_EQ((*cached.GetSnapshot("D"))->size(), 2u);

  CatalogAccessor uncached(&catalog, /*cache=*/false);
  EXPECT_EQ((*uncached.GetSnapshot("D"))->size(), 2u);
  ASSERT_TRUE(ds->Upsert(Rec(3)).ok());
  EXPECT_EQ((*uncached.GetSnapshot("D"))->size(), 3u);
}

TEST(CatalogAccessorTest, IndexProbeKinds) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDatatype(SimpleType()).ok());
  ASSERT_TRUE(catalog.CreateDataset("D", "T", "id").ok());
  auto ds = catalog.FindDataset("D");
  ASSERT_TRUE(ds->CreateIndex("i1", "payload", "btree").ok());
  CatalogAccessor accessor(&catalog, false);
  auto probe = accessor.GetIndexProbe("D", "payload");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->kind(), sqlpp::IndexProbe::Kind::kEquality);
  EXPECT_EQ(accessor.GetIndexProbe("D", "nope"), nullptr);
  EXPECT_EQ(accessor.GetIndexProbe("NoDs", "payload"), nullptr);
}

}  // namespace
}  // namespace idea::storage
