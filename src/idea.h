// Umbrella header for the IDEA library: a C++ reproduction of
// "An IDEA: An Ingestion Framework for Data Enrichment in AsterixDB"
// (Wang & Carey, PVLDB 12(11), 2019).
//
// Quick start:
//
//   idea::Instance db;
//   db.ExecuteScript(R"(
//     CREATE TYPE TweetType AS OPEN { id: int64, text: string };
//     CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
//     CREATE FEED TweetFeed WITH { "type-name": "TweetType", "format": "JSON" };
//     CONNECT FEED TweetFeed TO DATASET Tweets;
//   )");
//   db.SetFeedAdapterFactory("TweetFeed", my_adapter_factory);
//   db.ExecuteSqlpp("START FEED TweetFeed;");
//   db.WaitForFeed("TweetFeed");
//   auto rows = db.ExecuteSqlpp("SELECT VALUE count(t) FROM Tweets t;");
#pragma once

#include "adm/datatype.h"      // IWYU pragma: export
#include "adm/json.h"          // IWYU pragma: export
#include "adm/value.h"         // IWYU pragma: export
#include "common/status.h"     // IWYU pragma: export
#include "feed/active_feed_manager.h"  // IWYU pragma: export
#include "feed/adapter.h"      // IWYU pragma: export
#include "feed/feed.h"         // IWYU pragma: export
#include "feed/udf.h"          // IWYU pragma: export
#include "instance/instance.h" // IWYU pragma: export
#include "sqlpp/enrichment_plan.h"  // IWYU pragma: export
#include "sqlpp/parser.h"      // IWYU pragma: export
#include "storage/catalog.h"   // IWYU pragma: export
