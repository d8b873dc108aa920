// Native UDFs: C++ stand-ins for the paper's Java UDFs. Each stateful one
// loads a local resource file during Initialize() (Figure 7's
// keyword-list-loading Java UDF) and keeps the loaded structures as its
// intermediate state, re-initialized per computing-job invocation on every
// node. (The paper's static pipeline initializes it once and keeps it stale;
// the figure benches charge that case by accounting, cluster/cost_model.h.)
//
// Registered names:
//   testlib#removeSpecial      stateless screen-name cleaner (Figure 35)
//   testlib#usTweetSafetyCheck stateless "bomb in US tweets" check (Fig. 5)
//   testlib#tweetSafetyCheck   keyword-list safety check (Figure 7)
//   testlib#safetyRating       Java analog of enrichTweetQ1
//   testlib#religiousPopulation  ... of enrichTweetQ2
//   testlib#largestReligions     ... of enrichTweetQ3
//   testlib#fuzzySuspects        ... of annotateTweetQ4
//   testlib#nearbyMonuments      ... of enrichTweetQ4 (no index: linear scan)
#pragma once

#include <string>

#include "common/status.h"
#include "feed/udf.h"
#include "workload/reference_data.h"

namespace idea::workload {

/// Writes every resource file the native UDFs read ('|'-separated text, one
/// record per line) into `dir`, mirroring the generated reference datasets.
Status WriteNativeResources(const std::string& dir, const RefSizes& sizes,
                            size_t country_domain, uint64_t seed);

/// Registers all native UDFs under the "testlib" library. Stateful ones read
/// their resource files from `resource_dir` at Initialize() time.
Status RegisterNativeUdfs(feed::UdfRegistry* registry, const std::string& resource_dir);

}  // namespace idea::workload
