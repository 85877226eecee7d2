// Scenario: the paper's outsourcing story at fleet scale — several
// hospitals publish protected admission streams to one research
// institute at the same time, through one PrivmarkService.
//
// Each hospital is a named session: its batches serialize in arrival
// order (so its epoch output is byte-identical to running the stream
// alone), while different hospitals' requests take turns on the
// service's one shared worker pool, whose size caps the service's
// threads. Every hospital uses its own secret keys and its own data;
// the service only multiplexes compute.
//
// The demo drives three hospitals from three submitter threads, then
// audits every stream: the emitted output must be k-anonymous per
// attribute and every epoch's ownership mark must be recoverable from
// the concatenation the institute received. Exits non-zero on any
// failure, so this doubles as a CTest smoke test.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "datagen/medical_data.h"
#include "service/service.h"

using namespace privmark;  // NOLINT — example brevity

namespace {

constexpr size_t kHospitals = 3;
constexpr size_t kRowsPerHospital = 2400;
constexpr size_t kBatchRows = 600;
constexpr size_t kK = 10;

struct Hospital {
  std::string name;
  MedicalDataset dataset;
  UsageMetrics metrics;
  FrameworkConfig config;
  std::vector<ServiceFuture> futures;  // submission order
  Table emitted;
  std::vector<EpochRecord> epochs;
};

}  // namespace

int main() {
  // Distinct data and keys per hospital (different seeds -> different
  // admissions, marks, and statistics).
  std::vector<Hospital> hospitals(kHospitals);
  for (size_t h = 0; h < kHospitals; ++h) {
    Hospital& hospital = hospitals[h];
    hospital.name = "hospital-" + std::to_string(h);
    MedicalDataSpec spec;
    spec.num_rows = kRowsPerHospital;
    spec.seed = 1000 + h;
    hospital.dataset = std::move(GenerateMedicalDataset(spec)).ValueOrDie();
    hospital.metrics =
        std::move(MetricsFromDepthCuts(hospital.dataset.trees(),
                                       {2, 1, 2, 1, 1}))
            .ValueOrDie();
    hospital.config.binning.k = kK;
    hospital.config.binning.enforce_joint = false;
    hospital.config.binning.encryption_passphrase =
        hospital.name + "-vault";
    hospital.config.binning.num_threads = 0;  // ask for all of the cap
    hospital.config.watermark.num_threads = 0;
    // Sec. 6 slack: without it the watermark's sibling permutations can
    // push a bin below k (exactly what the audit below checks). A fixed
    // small copy count keeps |wmd| — and with it the epsilon — modest at
    // 2400 rows; bandwidth-filling copies would demand more slack than
    // the smaller ontology subtrees can give.
    hospital.config.auto_epsilon = true;
    hospital.config.copies = 4;
    hospital.config.key = {hospital.name + "-k1", hospital.name + "-k2",
                           /*eta=*/10};
    hospital.emitted = Table(hospital.dataset.table.schema());
  }

  ServiceConfig service_config;
  service_config.thread_cap = 0;
  PrivmarkService service(service_config);  // 0 = hardware concurrency
  for (Hospital& hospital : hospitals) {
    auto status = service.OpenSession(hospital.name, hospital.metrics,
                                      hospital.config);
    if (!status.ok()) {
      std::fprintf(stderr, "open %s: %s\n", hospital.name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }
  std::printf("service up: %zu sessions, thread cap %zu\n",
              service.num_sessions(), service.thread_cap());

  // --- Concurrent publication: one submitter thread per hospital ----------
  {
    std::vector<std::thread> submitters;
    for (Hospital& hospital : hospitals) {
      submitters.emplace_back([&service, &hospital] {
        const Table& table = hospital.dataset.table;
        for (size_t begin = 0; begin < table.num_rows();
             begin += kBatchRows) {
          hospital.futures.push_back(service.ProtectBatch(
              hospital.name, table.Slice(begin, begin + kBatchRows)));
        }
        hospital.futures.push_back(service.Flush(hospital.name));
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }

  // --- Collect each stream's output (futures land in request order) -------
  for (Hospital& hospital : hospitals) {
    for (ServiceFuture& future : hospital.futures) {
      auto result = future.get();
      if (!result.ok()) {
        std::fprintf(stderr, "%s: %s\n", hospital.name.c_str(),
                     result.status().ToString().c_str());
        return 1;
      }
      const Table& batch = result->kind == RequestKind::kFlush
                               ? result->epoch.outcome.watermarked
                               : result->ingest.emitted;
      (void)hospital.emitted.Append(batch);
    }
    hospital.futures.clear();
    std::printf("%s published %zu protected rows\n", hospital.name.c_str(),
                hospital.emitted.num_rows());
  }

  // --- Audit: privacy of the published copy, ownership of every epoch -----
  int failures = 0;
  for (Hospital& hospital : hospitals) {
    const std::vector<size_t> qi =
        hospital.emitted.schema().QuasiIdentifyingColumns();
    for (size_t c : qi) {
      if (!hospital.emitted.IsKAnonymous({c}, kK)) {
        std::fprintf(stderr, "%s: column %zu lost k-anonymity\n",
                     hospital.name.c_str(), c);
        ++failures;
      }
    }
    hospital.futures.push_back(
        service.Detect(hospital.name, hospital.emitted.Clone()));
    hospital.futures.push_back(service.CloseSession(hospital.name));
  }
  for (Hospital& hospital : hospitals) {
    auto detect = hospital.futures[0].get();
    auto close = hospital.futures[1].get();
    if (!detect.ok() || !close.ok()) {
      std::fprintf(stderr, "%s: audit failed\n", hospital.name.c_str());
      return 1;
    }
    hospital.epochs = close->stats.epochs;
    for (size_t e = 0; e < detect->reports.size(); ++e) {
      const bool match = detect->reports[e].recovered.ToString() ==
                         hospital.epochs[e].mark.ToString();
      std::printf("%s epoch %zu: mark %s\n", hospital.name.c_str(), e,
                  match ? "recovered" : "LOST");
      if (!match) ++failures;
    }
  }
  service.Shutdown();
  if (failures > 0) {
    std::fprintf(stderr, "%d audit failure(s)\n", failures);
    return 1;
  }
  std::printf("all %zu hospitals: privacy held, ownership recovered\n",
              hospitals.size());
  return 0;
}
