// Generators for every reference dataset of the paper's evaluation (§7.2,
// §7.4.2 and the appendix): SensitiveWords, SafetyRatings,
// ReligiousPopulations, SensitiveNames (suspects), monumentList,
// ReligiousBuildings, Facilities, SuspiciousNames, AverageIncomes,
// DistrictAreas, Persons (residents), AttackEvents.
//
// All generators are deterministic (seeded) and share the synthetic country/
// religion/facility domains in workload/tweets.h, so enrichment UDFs find
// real matches.
#pragma once

#include <string>
#include <vector>

#include "adm/value.h"

namespace idea::workload {

struct RefSizes {
  // Paper §7.2 sizes, scaled by the caller (via Scaled()).
  size_t sensitive_words = 5000;
  size_t safety_ratings = 500000;
  size_t religious_populations = 500000;
  size_t sensitive_names = 5000;  // "SuspectsNames" in §7.2
  size_t monuments = 500000;
  // Paper §7.4.2 sizes.
  size_t religious_buildings = 10000;
  size_t facilities = 50000;
  size_t sensitive_names_large = 1000000;  // "SensitiveNames" in §7.4.2
  size_t average_incomes = 50000;
  size_t district_areas = 500;
  size_t persons = 1000000000;  // "Residents"; always scale this down
  size_t attack_events = 5000;

  /// Uniformly scales every size by `factor` (floor 1). The benches use this
  /// both to shrink the workload to bench scale and for the paper's
  /// reference-data scale-out sweep (Figure 28: 1X..4X).
  RefSizes Scaled(double factor) const;
};

/// Laptop-scale defaults used by tests/examples/benches (same ratios).
RefSizes SimulatorScaleSizes();

// Each generator returns `n` records matching the appendix datatypes.
// `country_domain` must equal TweetOptions::country_domain.
std::vector<adm::Value> GenSensitiveWords(size_t n, size_t country_domain, uint64_t seed);
std::vector<adm::Value> GenSafetyRatings(size_t n, uint64_t seed);
std::vector<adm::Value> GenReligiousPopulations(size_t n, size_t country_domain,
                                                uint64_t seed);
std::vector<adm::Value> GenSensitiveNames(size_t n, uint64_t seed);
std::vector<adm::Value> GenMonuments(size_t n, uint64_t seed);
std::vector<adm::Value> GenReligiousBuildings(size_t n, uint64_t seed);
std::vector<adm::Value> GenFacilities(size_t n, uint64_t seed);
std::vector<adm::Value> GenSuspiciousNames(size_t n, uint64_t seed);
std::vector<adm::Value> GenAverageIncomes(size_t n, uint64_t seed);
std::vector<adm::Value> GenDistrictAreas(size_t n, uint64_t seed);
std::vector<adm::Value> GenPersons(size_t n, uint64_t seed);
std::vector<adm::Value> GenAttackEvents(size_t n, uint64_t seed);

/// A fresh update record for the named dataset (the §7.3 update clients).
/// `i` selects which existing key to overwrite (records cycle).
adm::Value GenUpdateFor(const std::string& dataset, size_t n_existing,
                        size_t country_domain, uint64_t i);

}  // namespace idea::workload
