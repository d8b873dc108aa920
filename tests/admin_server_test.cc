// Tests for the embedded HTTP admin server: the standalone server (routing,
// error responses, lifecycle) and the Instance-level smoke test that starts a
// cluster with the full telemetry plane enabled and scrapes every endpoint.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "adm/json.h"
#include "idea.h"
#include "obs/admin_server.h"
#include "workload/tweets.h"
#include "workload/usecases.h"

namespace idea::obs {
namespace {

// Sends raw bytes to the server and returns everything it answers (headers
// included). Used to exercise the 405/400 paths HttpGet can't produce.
std::string RawRequest(const std::string& host, uint16_t port,
                       const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) response.append(buf, n);
  ::close(fd);
  return response;
}

TEST(AdminServerTest, RoutesHandlersAndReportsErrors) {
  AdminServer server;  // default: 127.0.0.1, ephemeral port
  server.Handle("/ping", [](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = "{\"pong\":true,\"query\":\"" + req.query + "\"}";
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  auto body = HttpGet("127.0.0.1", server.port(), "/ping");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  auto parsed = adm::ParseJson(*body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->GetField("pong")->AsBool());

  // Query strings are split off the path and passed through.
  body = HttpGet("127.0.0.1", server.port(), "/ping?verbose=1");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("verbose=1"), std::string::npos);

  // Unknown path: 404 with a JSON error body.
  auto missing = HttpGet("127.0.0.1", server.port(), "/nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find("404"), std::string::npos);

  // Handlers can be registered while the server is running.
  server.Handle("/late", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "late"};
  });
  auto late = HttpGet("127.0.0.1", server.port(), "/late");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(*late, "late");

  // Non-GET methods are rejected with 405; garbage with 400.
  std::string post = RawRequest("127.0.0.1", server.port(),
                                "POST /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find(" 405 "), std::string::npos) << post;
  std::string garbage = RawRequest("127.0.0.1", server.port(), "ni!\r\n\r\n");
  EXPECT_NE(garbage.find(" 400 "), std::string::npos) << garbage;

  EXPECT_GE(server.requests_served(), 5u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(AdminServerTest, StartTwiceAndRestart) {
  AdminServer server;
  server.Handle("/x", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "x"};
  });
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();
  EXPECT_FALSE(server.Start().ok());  // already running
  server.Stop();
  // A stopped server can be started again (possibly on a new ephemeral port).
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  auto body = HttpGet("127.0.0.1", server.port(), "/x");
  ASSERT_TRUE(body.ok()) << "old port " << port << ": "
                         << body.status().ToString();
  EXPECT_EQ(*body, "x");
  server.Stop();
}

// ISSUE smoke test: a real Instance with the admin server + sampler enabled,
// a feed run through it, and every telemetry endpoint scraped and validated.
TEST(AdminServerTest, InstanceTelemetryPlaneEndToEnd) {
  InstanceOptions opts;
  opts.cluster.nodes = 2;
  opts.cluster.mode = cluster::ExecutionMode::kThreads;
  opts.enable_admin_server = true;
  opts.enable_sampler = true;
  opts.sampler.period_us = 5'000;
  Instance db(opts);
  ASSERT_GT(db.admin_port(), 0);
  const uint16_t port = db.admin_port();

  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE FEED TweetFeed WITH { "type-name": "TweetType", "batch-size": "25" };
    CONNECT FEED TweetFeed TO DATASET Tweets;
  )").ok());
  auto records = std::make_shared<std::vector<std::string>>();
  workload::TweetGenerator gen({.seed = 7, .country_domain = 20});
  for (int i = 0; i < 100; ++i) records->push_back(gen.NextJson());
  ASSERT_TRUE(db.SetFeedAdapterFactory("TweetFeed",
                                       feed::MakeVectorAdapterFactory(records))
                  .ok());
  ASSERT_TRUE(db.ExecuteSqlpp("START FEED TweetFeed;").ok());
  auto stats = db.WaitForFeed("TweetFeed");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, 100u);

  // /healthz
  auto health = HttpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  auto parsed = adm::ParseJson(*health);
  ASSERT_TRUE(parsed.ok()) << *health;
  EXPECT_EQ(parsed->GetField("status")->AsString(), "ok");

  // /metrics: the standard JSON snapshot, with the feed's counters in it.
  auto metrics = HttpGet("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(metrics.ok());
  parsed = adm::ParseJson(*metrics);
  ASSERT_TRUE(parsed.ok()) << *metrics;
  EXPECT_EQ(parsed->GetField("type")->AsString(), "metrics");
  const adm::Value* counters = parsed->GetField("counters");
  ASSERT_NE(counters, nullptr);
  const adm::Value* ingested =
      counters->GetField("idea.feed.TweetFeed.records_ingested");
  ASSERT_NE(ingested, nullptr) << *metrics;
  EXPECT_EQ(ingested->AsInt(), 100);

  // /metrics.prom: Prometheus text exposition.
  auto prom = HttpGet("127.0.0.1", port, "/metrics.prom");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("# TYPE idea_feed_TweetFeed_records_ingested counter"),
            std::string::npos)
      << prom->substr(0, 500);
  EXPECT_NE(prom->find("idea_feed_TweetFeed_records_ingested 100"),
            std::string::npos);

  // /traces: Chrome trace_event JSON with at least one complete event.
  auto traces = HttpGet("127.0.0.1", port, "/traces");
  ASSERT_TRUE(traces.ok());
  parsed = adm::ParseJson(*traces);
  ASSERT_TRUE(parsed.ok()) << traces->substr(0, 500);
  const adm::Value* events = parsed->GetField("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->AsArray().size(), 0u);
  EXPECT_EQ(events->AsArray()[0].GetField("ph")->AsString(), "X");

  // /timeseries: sampler output over the same registry.
  auto ts = HttpGet("127.0.0.1", port, "/timeseries");
  ASSERT_TRUE(ts.ok());
  parsed = adm::ParseJson(*ts);
  ASSERT_TRUE(parsed.ok()) << ts->substr(0, 500);
  EXPECT_EQ(parsed->GetField("type")->AsString(), "timeseries");
  ASSERT_NE(db.sampler(), nullptr);
  EXPECT_GE(parsed->GetField("samples")->AsInt(), 0);

  // /feeds: per-feed rollup with ingestion totals and DLQ depth.
  auto feeds = HttpGet("127.0.0.1", port, "/feeds");
  ASSERT_TRUE(feeds.ok());
  parsed = adm::ParseJson(*feeds);
  ASSERT_TRUE(parsed.ok()) << *feeds;
  const adm::Value* feed =
      parsed->GetField("feeds") ? parsed->GetField("feeds")->GetField("TweetFeed")
                                : nullptr;
  ASSERT_NE(feed, nullptr) << *feeds;
  EXPECT_EQ(feed->GetField("dataset")->AsString(), "Tweets");
  EXPECT_EQ(feed->GetField("records_ingested")->AsInt(), 100);
  EXPECT_EQ(feed->GetField("dlq_depth")->AsInt(), 0);

  // /flightrecorder: the ring has the feed's start/stop story.
  auto flight = HttpGet("127.0.0.1", port, "/flightrecorder");
  ASSERT_TRUE(flight.ok());
  parsed = adm::ParseJson(*flight);
  ASSERT_TRUE(parsed.ok()) << flight->substr(0, 500);
  bool saw_start = false, saw_stop = false;
  for (const auto& ev : parsed->GetField("events")->AsArray()) {
    if (ev.GetField("scope")->AsString() != "TweetFeed") continue;
    if (ev.GetField("kind")->AsString() == "feed_start") saw_start = true;
    if (ev.GetField("kind")->AsString() == "feed_stop") saw_stop = true;
  }
  EXPECT_TRUE(saw_start) << *flight;
  EXPECT_TRUE(saw_stop) << *flight;
}

}  // namespace
}  // namespace idea::obs
