#include "workload/usecases.h"

namespace idea::workload {

std::string TweetDdl() {
  return R"(
CREATE TYPE TweetType AS OPEN {
  id: int64,
  text: string,
  country: string,
  latitude: double,
  longitude: double,
  created_at: datetime
};
CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
)";
}

std::string SensitiveWordsDdl() {
  return R"(
CREATE TYPE SensitiveWordType AS OPEN {
  wid: string,
  country: string,
  word: string
};
CREATE DATASET SensitiveWords(SensitiveWordType) PRIMARY KEY wid;
)";
}

std::string TweetSafetyCheckFunctionDdl() {
  // Figure 8 (SQL++ UDF 2).
  return R"(
CREATE FUNCTION tweetSafetyCheck(tweet) {
  LET safety_check_flag = CASE
    EXISTS(SELECT s FROM SensitiveWords s
           WHERE tweet.country = s.country AND
                 contains(tweet.text, s.word))
    WHEN true THEN "Red" ELSE "Green"
  END
  SELECT tweet.*, safety_check_flag
};
)";
}

std::string HighRiskTweetCheckFunctionDdl() {
  // Figure 18: nested subquery with GROUP BY / ORDER BY / LIMIT.
  return R"(
CREATE FUNCTION highRiskTweetCheck(t) {
  LET high_risk_flag = CASE
    t.country IN (SELECT VALUE s.country
                  FROM SensitiveWords s
                  GROUP BY s.country
                  ORDER BY count(s)
                  LIMIT 10)
    WHEN true THEN "Red" ELSE "Green"
  END
  SELECT t.*, high_risk_flag
};
)";
}

std::string NaiveNearbyMonumentsFunctionDdl() {
  return R"(
CREATE FUNCTION enrichTweetQ4Naive(t) {
  LET nearby_monuments =
    (SELECT VALUE m.monument_id
     FROM monumentList /*+ skip-index */ m
     WHERE spatial_intersect(
             m.monument_location,
             create_circle(create_point(t.latitude, t.longitude), 1.5)))
  SELECT t.*, nearby_monuments
};
)";
}

namespace {

std::vector<UseCaseSpec> BuildUseCases() {
  std::vector<UseCaseSpec> out;

  // 1. Safety Rating (appendix A; hash join).
  out.push_back(UseCaseSpec{
      UseCaseId::kSafetyRating,
      "Safety Rating",
      R"(
CREATE TYPE SafetyRatingType AS OPEN {
  country_code: string,
  safety_rating: string
};
CREATE DATASET SafetyRatings(SafetyRatingType) PRIMARY KEY country_code;
)",
      R"(
CREATE FUNCTION enrichTweetQ1(t) {
  LET safety_rating = (SELECT VALUE s.safety_rating
                       FROM SafetyRatings s
                       WHERE t.country = s.country_code)
  SELECT t.*, safety_rating
};
)",
      "enrichTweetQ1",
      "testlib#safetyRating",
      {"SafetyRatings"}});

  // 2. Religious Population (appendix B; group-by / implicit aggregation).
  out.push_back(UseCaseSpec{
      UseCaseId::kReligiousPopulation,
      "Religious Population",
      R"(
CREATE TYPE ReligiousPopulationType AS OPEN {
  rid: string,
  country_name: string,
  religion_name: string,
  population: int
};
CREATE DATASET ReligiousPopulations(ReligiousPopulationType) PRIMARY KEY rid;
)",
      R"(
CREATE FUNCTION enrichTweetQ2(t) {
  LET religious_population =
    (SELECT sum(r.population) FROM ReligiousPopulations r
     WHERE r.country_name = t.country)[0]
  SELECT t.*, religious_population
};
)",
      "enrichTweetQ2",
      "testlib#religiousPopulation",
      {"ReligiousPopulations"}});

  // 3. Largest Religions (appendix C; order-by).
  out.push_back(UseCaseSpec{
      UseCaseId::kLargestReligions,
      "Largest Religions",
      R"(
CREATE TYPE ReligiousPopulationType AS OPEN {
  rid: string,
  country_name: string,
  religion_name: string,
  population: int
};
CREATE DATASET ReligiousPopulations(ReligiousPopulationType) PRIMARY KEY rid;
)",
      R"(
CREATE FUNCTION enrichTweetQ3(t) {
  LET largest_religions =
    (SELECT VALUE r.religion_name
     FROM ReligiousPopulations r
     WHERE r.country_name = t.country
     ORDER BY r.population LIMIT 3)
  SELECT t.*, largest_religions
};
)",
      "enrichTweetQ3",
      "testlib#largestReligions",
      {"ReligiousPopulations"}});

  // 4. Fuzzy Suspects (appendix D; similarity join via native removeSpecial).
  out.push_back(UseCaseSpec{
      UseCaseId::kFuzzySuspects,
      "Fuzzy Suspects",
      R"(
CREATE TYPE SensitiveNameType AS OPEN {
  sid: string,
  sensitiveName: string,
  religionName: string
};
CREATE DATASET SensitiveNamesDataset(SensitiveNameType) PRIMARY KEY sid;
)",
      R"(
CREATE FUNCTION annotateTweetQ4(x) {
  LET related_suspects = (
    SELECT s.sensitiveName, s.religionName
    FROM SensitiveNamesDataset s
    WHERE edit_distance(
            testlib#removeSpecial(x.user.screen_name),
            s.sensitiveName) < 5)
  SELECT x.*, related_suspects
};
)",
      "annotateTweetQ4",
      "testlib#fuzzySuspects",
      {"SensitiveNamesDataset"}});

  // 5. Nearby Monuments (appendix E; R-tree index nested-loop spatial join).
  out.push_back(UseCaseSpec{
      UseCaseId::kNearbyMonuments,
      "Nearby Monuments",
      R"(
CREATE TYPE monumentType AS OPEN {
  monument_id: string,
  monument_location: point
};
CREATE DATASET monumentList(monumentType) PRIMARY KEY monument_id;
CREATE INDEX monumentLocIdx ON monumentList(monument_location) TYPE RTREE;
)",
      R"(
CREATE FUNCTION enrichTweetQ4(t) {
  LET nearby_monuments =
    (SELECT VALUE m.monument_id
     FROM monumentList m
     WHERE spatial_intersect(
             m.monument_location,
             create_circle(create_point(t.latitude, t.longitude), 1.5)))
  SELECT t.*, nearby_monuments
};
)",
      "enrichTweetQ4",
      "testlib#nearbyMonuments",
      {"monumentList"}});

  // 6. Suspicious Names (appendix F).
  out.push_back(UseCaseSpec{
      UseCaseId::kSuspiciousNames,
      "Suspicious Names",
      R"(
CREATE TYPE ReligiousBuildingType AS OPEN {
  religious_building_id: string,
  religion_name: string,
  building_location: point,
  registered_believer: int
};
CREATE DATASET ReligiousBuildings(ReligiousBuildingType) PRIMARY KEY religious_building_id;
CREATE INDEX rbLocIdx ON ReligiousBuildings(building_location) TYPE RTREE;
CREATE TYPE FacilityType AS OPEN {
  facility_id: string,
  facility_location: point,
  facility_type: string
};
CREATE DATASET Facilities(FacilityType) PRIMARY KEY facility_id;
CREATE INDEX facLocIdx ON Facilities(facility_location) TYPE RTREE;
CREATE TYPE SuspiciousNamesType AS OPEN {
  suspicious_name_id: string,
  suspicious_name: string,
  religion_name: string,
  threat_level: int
};
CREATE DATASET SuspiciousNames(SuspiciousNamesType) PRIMARY KEY suspicious_name_id;
)",
      R"(
CREATE FUNCTION enrichTweetQ5(t) {
  LET nearby_facilities = (
        SELECT f.facility_type FacilityType, count(*) AS Cnt
        FROM Facilities f
        WHERE spatial_intersect(create_point(t.latitude, t.longitude),
                                create_circle(f.facility_location, 3.0))
        GROUP BY f.facility_type),
      nearby_religious_buildings = (
        SELECT r.religious_building_id religious_building_id,
               r.religion_name religion_name
        FROM ReligiousBuildings r
        WHERE spatial_intersect(create_point(t.latitude, t.longitude),
                                create_circle(r.building_location, 3.0))
        ORDER BY spatial_distance(create_point(t.latitude, t.longitude),
                                  r.building_location) LIMIT 3),
      suspicious_users_info = (
        SELECT s.suspicious_name_id suspect_id,
               s.religion_name AS religion,
               s.threat_level AS threat_level
        FROM SuspiciousNames s
        WHERE s.suspicious_name = t.user.name)
  SELECT t.*, nearby_facilities, nearby_religious_buildings, suspicious_users_info
};
)",
      "enrichTweetQ5",
      "",
      {"ReligiousBuildings", "Facilities", "SuspiciousNames"}});

  // 7. Tweet Context (appendix G).
  out.push_back(UseCaseSpec{
      UseCaseId::kTweetContext,
      "Tweet Context",
      R"(
CREATE TYPE DistrictAreaType AS OPEN {
  district_area_id: string,
  district_area: rectangle
};
CREATE DATASET DistrictAreas(DistrictAreaType) PRIMARY KEY district_area_id;
CREATE INDEX daAreaIdx ON DistrictAreas(district_area) TYPE RTREE;
CREATE TYPE FacilityType AS OPEN {
  facility_id: string,
  facility_location: point,
  facility_type: string
};
CREATE DATASET Facilities(FacilityType) PRIMARY KEY facility_id;
CREATE INDEX facLocIdx ON Facilities(facility_location) TYPE RTREE;
CREATE TYPE AverageIncomeType AS OPEN {
  district_area_id: string,
  average_income: double
};
CREATE DATASET AverageIncomes(AverageIncomeType) PRIMARY KEY district_area_id;
CREATE TYPE PersonType AS OPEN {
  person_id: string,
  ethnicity: string,
  location: point
};
CREATE DATASET Persons(PersonType) PRIMARY KEY person_id;
CREATE INDEX personLocIdx ON Persons(location) TYPE RTREE;
)",
      R"(
CREATE FUNCTION enrichTweetQ6(t) {
  LET area_avg_income = (
        SELECT VALUE a.average_income
        FROM AverageIncomes a, DistrictAreas d1
        WHERE a.district_area_id = d1.district_area_id
          AND spatial_intersect(create_point(t.latitude, t.longitude),
                                d1.district_area)),
      area_facilities = (
        SELECT f.facility_type, count(*) AS Cnt
        FROM Facilities f, DistrictAreas d2
        WHERE spatial_intersect(f.facility_location, d2.district_area)
          AND spatial_intersect(create_point(t.latitude, t.longitude),
                                d2.district_area)
        GROUP BY f.facility_type),
      ethnicity_dist = (
        SELECT ethnicity, count(*) AS EthnicityPopulation
        FROM Persons p, DistrictAreas d3
        WHERE spatial_intersect(create_point(t.latitude, t.longitude),
                                d3.district_area)
          AND spatial_intersect(p.location, d3.district_area)
        GROUP BY p.ethnicity AS ethnicity)
  SELECT t.*, area_avg_income, area_facilities, ethnicity_dist
};
)",
      "enrichTweetQ6",
      "",
      {"DistrictAreas", "Facilities", "AverageIncomes", "Persons"}});

  // 8. Worrisome Tweets (appendix H).
  out.push_back(UseCaseSpec{
      UseCaseId::kWorrisomeTweets,
      "Worrisome Tweets",
      R"(
CREATE TYPE ReligiousBuildingType AS OPEN {
  religious_building_id: string,
  religion_name: string,
  building_location: point,
  registered_believer: int
};
CREATE DATASET ReligiousBuildings(ReligiousBuildingType) PRIMARY KEY religious_building_id;
CREATE INDEX rbLocIdx ON ReligiousBuildings(building_location) TYPE RTREE;
CREATE TYPE AttackEventsType AS OPEN {
  attack_record_id: string,
  attack_datetime: datetime,
  attack_location: point,
  related_religion: string
};
CREATE DATASET AttackEvents(AttackEventsType) PRIMARY KEY attack_record_id;
)",
      R"(
CREATE FUNCTION enrichTweetQ7(t) {
  LET nearby_religious_attacks = (
    SELECT r.religion_name AS religion, count(a.attack_record_id) AS attack_num
    FROM ReligiousBuildings r, AttackEvents a
    WHERE spatial_intersect(create_point(t.latitude, t.longitude),
                            create_circle(r.building_location, 3.0))
      AND t.created_at < a.attack_datetime + duration("P2M")
      AND t.created_at > a.attack_datetime
      AND r.religion_name = a.related_religion
    GROUP BY r.religion_name)
  SELECT t.*, nearby_religious_attacks
};
)",
      "enrichTweetQ7",
      "",
      {"ReligiousBuildings", "AttackEvents"}});

  return out;
}

}  // namespace

const std::vector<UseCaseSpec>& AllUseCases() {
  static const std::vector<UseCaseSpec> kUseCases = BuildUseCases();
  return kUseCases;
}

const UseCaseSpec& GetUseCase(UseCaseId id) {
  return AllUseCases()[static_cast<size_t>(id)];
}

Status LoadReferenceDataset(storage::Catalog* catalog, const std::string& dataset,
                            const RefSizes& sizes, size_t country_domain, uint64_t seed) {
  std::shared_ptr<storage::LsmDataset> ds = catalog->FindDataset(dataset);
  if (ds == nullptr) return Status::NotFound("dataset '" + dataset + "' not created");
  std::vector<adm::Value> records;
  if (dataset == "SafetyRatings") {
    records = GenSafetyRatings(sizes.safety_ratings, seed);
  } else if (dataset == "ReligiousPopulations") {
    records = GenReligiousPopulations(sizes.religious_populations, country_domain, seed);
  } else if (dataset == "SensitiveNamesDataset") {
    records = GenSensitiveNames(sizes.sensitive_names, seed);
  } else if (dataset == "monumentList") {
    records = GenMonuments(sizes.monuments, seed);
  } else if (dataset == "ReligiousBuildings") {
    records = GenReligiousBuildings(sizes.religious_buildings, seed);
  } else if (dataset == "Facilities") {
    records = GenFacilities(sizes.facilities, seed);
  } else if (dataset == "SuspiciousNames") {
    records = GenSuspiciousNames(sizes.sensitive_names, seed);
  } else if (dataset == "DistrictAreas") {
    records = GenDistrictAreas(sizes.district_areas, seed);
  } else if (dataset == "AverageIncomes") {
    records = GenAverageIncomes(sizes.average_incomes, seed);
  } else if (dataset == "Persons") {
    records = GenPersons(sizes.persons, seed);
  } else if (dataset == "AttackEvents") {
    records = GenAttackEvents(sizes.attack_events, seed);
  } else if (dataset == "SensitiveWords") {
    records = GenSensitiveWords(sizes.sensitive_words, country_domain, seed);
  } else {
    return Status::NotFound("no generator for dataset '" + dataset + "'");
  }
  for (auto& rec : records) {
    IDEA_RETURN_NOT_OK(ds->Upsert(std::move(rec)));
  }
  IDEA_RETURN_NOT_OK(ds->FlushWal());
  // Freeze the loaded data into an immutable component, like a bulk load:
  // the first post-load update then *activates* the in-memory component, the
  // read-path change §7.3 measures.
  IDEA_RETURN_NOT_OK(ds->FlushMemTable());
  return Status::OK();
}

Status LoadUseCaseData(storage::Catalog* catalog, const UseCaseSpec& use_case,
                       const RefSizes& sizes, size_t country_domain, uint64_t seed) {
  for (const auto& dataset : use_case.datasets) {
    IDEA_RETURN_NOT_OK(
        LoadReferenceDataset(catalog, dataset, sizes, country_domain, seed));
  }
  return Status::OK();
}

}  // namespace idea::workload
