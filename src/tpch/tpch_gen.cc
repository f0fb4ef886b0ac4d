#include "tpch/tpch_gen.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace smoothscan::tpch {

int64_t DateDays(int year, int month, int day) {
  // Howard Hinnant's days_from_civil.
  year -= month <= 2;
  const int era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(day) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 +
         static_cast<int64_t>(doe) - 719468;
}

namespace {

const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"};
const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "HOUSEHOLD", "MACHINERY"};
const char* const kShipModes[] = {"AIR", "FOB", "MAIL", "RAIL",
                                  "REG AIR", "SHIP", "TRUCK"};
const char* const kTypePrefixes[] = {"PROMO", "STANDARD", "SMALL",
                                     "MEDIUM", "LARGE", "ECONOMY"};
const char* const kTypeMids[] = {"ANODIZED", "BURNISHED", "PLATED",
                                 "POLISHED", "BRUSHED"};
const char* const kTypeSuffixes[] = {"TIN", "NICKEL", "BRASS", "STEEL",
                                     "COPPER"};
const char* const kNations[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL",  "CANADA",       "EGYPT",
    "ETHIOPIA", "FRANCE",   "GERMANY", "INDIA",        "INDONESIA",
    "IRAN",     "IRAQ",     "JAPAN",   "JORDAN",       "KENYA",
    "MOROCCO",  "MOZAMBIQUE", "PERU",  "CHINA",        "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                "MIDDLE EAST"};

template <size_t N>
const char* Pick(Rng* rng, const char* const (&arr)[N]) {
  return arr[rng->UniformInt(0, static_cast<int64_t>(N) - 1)];
}

Schema LineitemSchema() {
  return Schema({{"l_orderkey", ValueType::kInt64},
                 {"l_partkey", ValueType::kInt64},
                 {"l_suppkey", ValueType::kInt64},
                 {"l_linenumber", ValueType::kInt64},
                 {"l_quantity", ValueType::kDouble},
                 {"l_extendedprice", ValueType::kDouble},
                 {"l_discount", ValueType::kDouble},
                 {"l_tax", ValueType::kDouble},
                 {"l_returnflag", ValueType::kString},
                 {"l_linestatus", ValueType::kString},
                 {"l_shipdate", ValueType::kDate},
                 {"l_commitdate", ValueType::kDate},
                 {"l_receiptdate", ValueType::kDate},
                 {"l_shipmode", ValueType::kString}});
}

Schema OrdersSchema() {
  return Schema({{"o_orderkey", ValueType::kInt64},
                 {"o_custkey", ValueType::kInt64},
                 {"o_orderstatus", ValueType::kString},
                 {"o_totalprice", ValueType::kDouble},
                 {"o_orderdate", ValueType::kDate},
                 {"o_orderpriority", ValueType::kString}});
}

Schema CustomerSchema() {
  return Schema({{"c_custkey", ValueType::kInt64},
                 {"c_nationkey", ValueType::kInt64},
                 {"c_acctbal", ValueType::kDouble},
                 {"c_mktsegment", ValueType::kString}});
}

Schema SupplierSchema() {
  return Schema({{"s_suppkey", ValueType::kInt64},
                 {"s_nationkey", ValueType::kInt64},
                 {"s_acctbal", ValueType::kDouble}});
}

Schema NationSchema() {
  return Schema({{"n_nationkey", ValueType::kInt64},
                 {"n_regionkey", ValueType::kInt64},
                 {"n_name", ValueType::kString}});
}

Schema RegionSchema() {
  return Schema({{"r_regionkey", ValueType::kInt64},
                 {"r_name", ValueType::kString}});
}

Schema PartSchema() {
  return Schema({{"p_partkey", ValueType::kInt64},
                 {"p_retailprice", ValueType::kDouble},
                 {"p_type", ValueType::kString}});
}

Schema PartsuppSchema() {
  return Schema({{"ps_partkey", ValueType::kInt64},
                 {"ps_suppkey", ValueType::kInt64},
                 {"ps_availqty", ValueType::kInt64},
                 {"ps_supplycost", ValueType::kDouble}});
}

}  // namespace

TpchDb::TpchDb(Engine* engine, const TpchSpec& spec)
    : engine_(engine), spec_(spec) {
  SMOOTHSCAN_CHECK(spec.scale_factor > 0.0);
  const double sf = spec.scale_factor;
  const uint64_t num_orders =
      std::max<uint64_t>(10, static_cast<uint64_t>(1500000.0 * sf));
  const uint64_t num_customers =
      std::max<uint64_t>(5, static_cast<uint64_t>(150000.0 * sf));
  const uint64_t num_parts =
      std::max<uint64_t>(5, static_cast<uint64_t>(200000.0 * sf));
  const uint64_t num_suppliers =
      std::max<uint64_t>(2, static_cast<uint64_t>(10000.0 * sf));

  Rng rng(spec.seed);

  // region / nation.
  region_ = std::make_unique<HeapFile>(engine, "region", RegionSchema());
  for (int r = 0; r < 5; ++r) {
    SMOOTHSCAN_CHECK(region_
                         ->Append({Value::Int64(r),
                                   Value::String(kRegions[r])})
                         .ok());
  }
  nation_ = std::make_unique<HeapFile>(engine, "nation", NationSchema());
  for (int n = 0; n < 25; ++n) {
    SMOOTHSCAN_CHECK(nation_
                         ->Append({Value::Int64(n), Value::Int64(n % 5),
                                   Value::String(kNations[n])})
                         .ok());
  }

  // supplier.
  supplier_ = std::make_unique<HeapFile>(engine, "supplier", SupplierSchema());
  for (uint64_t s = 1; s <= num_suppliers; ++s) {
    SMOOTHSCAN_CHECK(supplier_
                         ->Append({Value::Int64(static_cast<int64_t>(s)),
                                   Value::Int64(rng.UniformInt(0, 24)),
                                   Value::Double(rng.UniformDouble(-999, 9999))})
                         .ok());
  }

  // customer.
  customer_ = std::make_unique<HeapFile>(engine, "customer", CustomerSchema());
  for (uint64_t c = 1; c <= num_customers; ++c) {
    SMOOTHSCAN_CHECK(customer_
                         ->Append({Value::Int64(static_cast<int64_t>(c)),
                                   Value::Int64(rng.UniformInt(0, 24)),
                                   Value::Double(rng.UniformDouble(-999, 9999)),
                                   Value::String(Pick(&rng, kSegments))})
                         .ok());
  }

  // part.
  part_ = std::make_unique<HeapFile>(engine, "part", PartSchema());
  for (uint64_t p = 1; p <= num_parts; ++p) {
    std::string type = Pick(&rng, kTypePrefixes);
    type += ' ';
    type += Pick(&rng, kTypeMids);
    type += ' ';
    type += Pick(&rng, kTypeSuffixes);
    SMOOTHSCAN_CHECK(
        part_
            ->Append({Value::Int64(static_cast<int64_t>(p)),
                      Value::Double(rng.UniformDouble(900, 2000)),
                      Value::String(std::move(type))})
            .ok());
  }

  // partsupp: 4 suppliers per part.
  partsupp_ = std::make_unique<HeapFile>(engine, "partsupp", PartsuppSchema());
  for (uint64_t p = 1; p <= num_parts; ++p) {
    for (int k = 0; k < 4; ++k) {
      SMOOTHSCAN_CHECK(
          partsupp_
              ->Append({Value::Int64(static_cast<int64_t>(p)),
                        Value::Int64(rng.UniformInt(
                            1, static_cast<int64_t>(num_suppliers))),
                        Value::Int64(rng.UniformInt(1, 9999)),
                        Value::Double(rng.UniformDouble(1, 1000))})
              .ok());
    }
  }

  // orders + lineitem.
  const int64_t kOrderDateLo = DateDays(1992, 1, 1);
  const int64_t kOrderDateHi = DateDays(1998, 8, 2);
  orders_ = std::make_unique<HeapFile>(engine, "orders", OrdersSchema());
  lineitem_ = std::make_unique<HeapFile>(engine, "lineitem", LineitemSchema());
  for (uint64_t o = 1; o <= num_orders; ++o) {
    const int64_t orderdate = rng.UniformInt(kOrderDateLo, kOrderDateHi);
    const int64_t custkey =
        rng.UniformInt(1, static_cast<int64_t>(num_customers));
    const int num_lines = static_cast<int>(rng.UniformInt(1, 7));
    double total = 0.0;
    for (int l = 1; l <= num_lines; ++l) {
      const double quantity = static_cast<double>(rng.UniformInt(1, 50));
      const double price = quantity * rng.UniformDouble(900.0, 2000.0) / 10.0;
      const double discount =
          static_cast<double>(rng.UniformInt(0, 10)) / 100.0;
      const double tax = static_cast<double>(rng.UniformInt(0, 8)) / 100.0;
      const int64_t shipdate = orderdate + rng.UniformInt(1, 121);
      const int64_t commitdate = orderdate + rng.UniformInt(30, 90);
      const int64_t receiptdate = shipdate + rng.UniformInt(1, 30);
      const bool shipped_by_cutoff = shipdate <= DateDays(1995, 6, 17);
      total += price * (1.0 - discount) * (1.0 + tax);
      SMOOTHSCAN_CHECK(
          lineitem_
              ->Append({Value::Int64(static_cast<int64_t>(o)),
                        Value::Int64(rng.UniformInt(
                            1, static_cast<int64_t>(num_parts))),
                        Value::Int64(rng.UniformInt(
                            1, static_cast<int64_t>(num_suppliers))),
                        Value::Int64(l), Value::Double(quantity),
                        Value::Double(price), Value::Double(discount),
                        Value::Double(tax),
                        Value::String(rng.Bernoulli(0.25)
                                          ? "R"
                                          : (rng.Bernoulli(0.33) ? "A" : "N")),
                        Value::String(shipped_by_cutoff ? "F" : "O"),
                        Value::Date(shipdate), Value::Date(commitdate),
                        Value::Date(receiptdate),
                        Value::String(Pick(&rng, kShipModes))})
              .ok());
    }
    SMOOTHSCAN_CHECK(
        orders_
            ->Append({Value::Int64(static_cast<int64_t>(o)),
                      Value::Int64(custkey),
                      Value::String(rng.Bernoulli(0.5) ? "F" : "O"),
                      Value::Double(total), Value::Date(orderdate),
                      Value::String(Pick(&rng, kPriorities))})
            .ok());
  }

  // The tuned index set.
  l_shipdate_idx_ = std::make_unique<BPlusTree>(
      engine, "lineitem_shipdate_idx", lineitem_.get(), lineitem::kShipDate);
  l_shipdate_idx_->BulkBuild();
  o_orderkey_idx_ = std::make_unique<BPlusTree>(
      engine, "orders_pk_idx", orders_.get(), orders::kOrderKey);
  o_orderkey_idx_->BulkBuild();
  p_partkey_idx_ = std::make_unique<BPlusTree>(engine, "part_pk_idx",
                                               part_.get(), part::kPartKey);
  p_partkey_idx_->BulkBuild();
}

}  // namespace smoothscan::tpch
