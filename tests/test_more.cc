/**
 * @file
 * Second-wave coverage: deeper properties and edge cases across the
 * regex engine, stemmer, CRF, decoder, vision, search, QA, accelerator
 * models and the queue simulators.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/latency.h"
#include "accel/model.h"
#include "common/rng.h"
#include "dcsim/designer.h"
#include "dcsim/queueing.h"
#include "dcsim/scalability.h"
#include "dcsim/simulation.h"
#include "dcsim/tco.h"
#include "nlp/crf.h"
#include "nlp/porter_stemmer.h"
#include "nlp/pos_corpus.h"
#include "nlp/regex.h"
#include "search/inverted_index.h"
#include "speech/asr_service.h"
#include "speech/decoder.h"
#include "vision/imm_service.h"
#include "vision/landmarks.h"
#include "vision/surf.h"

namespace {

using namespace sirius;

// -------------------------------------------------------------------- regex

TEST(RegexMore, NestedGroupsAndQuantifiers)
{
    nlp::Regex re("a(b(c|d)*)+e");
    ASSERT_TRUE(re.ok());
    EXPECT_TRUE(re.fullMatch("abe"));
    EXPECT_TRUE(re.fullMatch("abcde"));
    EXPECT_TRUE(re.fullMatch("abccddbce"));
    EXPECT_FALSE(re.fullMatch("ae"));
    EXPECT_FALSE(re.fullMatch("abca"));
}

TEST(RegexMore, AnchorsInsideAlternation)
{
    nlp::Regex re("^start|end$");
    EXPECT_TRUE(re.search("start of it"));
    EXPECT_TRUE(re.search("at the end"));
    EXPECT_FALSE(re.search("the start inside"));
    EXPECT_FALSE(re.search("no match"));
}

TEST(RegexMore, ClassWithEscapesAndLiterals)
{
    nlp::Regex re("[\\d\\s,]+");
    ASSERT_TRUE(re.ok());
    EXPECT_TRUE(re.fullMatch("1 2,3"));
    EXPECT_FALSE(re.fullMatch("1a2"));
}

TEST(RegexMore, DashAtClassEndIsLiteral)
{
    nlp::Regex re("[a-]+");
    ASSERT_TRUE(re.ok());
    EXPECT_TRUE(re.fullMatch("a-a"));
    EXPECT_FALSE(re.fullMatch("b"));
}

TEST(RegexMore, QuestionAfterGroup)
{
    nlp::Regex re("(very )?good");
    EXPECT_TRUE(re.fullMatch("good"));
    EXPECT_TRUE(re.fullMatch("very good"));
    EXPECT_FALSE(re.fullMatch("very very good"));
}

TEST(RegexMore, CountMatchesOverlapping)
{
    // Matches are counted by distinct start offsets, so "aaa" has three
    // places where "aa" can begin a match... two, since the last 'a'
    // alone can't.
    nlp::Regex re("aa");
    EXPECT_EQ(re.countMatches("aaa"), 2u);
}

TEST(RegexMore, ProgramSizeBounded)
{
    // Thompson construction is linear in pattern size.
    nlp::Regex small("abc");
    nlp::Regex big("(a|b)*c+d?e(f|g|h)*");
    EXPECT_LT(small.programSize(), 10u);
    EXPECT_LT(big.programSize(), 64u);
}

TEST(RegexMore, LongLiteralChainLinearTime)
{
    std::string pattern(200, 'a');
    nlp::Regex re(pattern);
    ASSERT_TRUE(re.ok());
    EXPECT_TRUE(re.fullMatch(std::string(200, 'a')));
    EXPECT_FALSE(re.fullMatch(std::string(199, 'a')));
}

// ------------------------------------------------------------------ stemmer

TEST(StemmerMore, StepFamilies)
{
    nlp::PorterStemmer stemmer;
    // 1a
    EXPECT_EQ(stemmer.stem("ponies"), "poni");
    // 1b with at/bl/iz restoration
    EXPECT_EQ(stemmer.stem("luxuriated"), "luxuri");
    EXPECT_EQ(stemmer.stem("troubling"), "troubl");
    // 2
    EXPECT_EQ(stemmer.stem("generalization"), "gener");
    // 3
    EXPECT_EQ(stemmer.stem("duplicate"), "duplic");
    // 4
    EXPECT_EQ(stemmer.stem("effective"), "effect");
    // 5
    EXPECT_EQ(stemmer.stem("probate"), "probat");
}

TEST(StemmerMore, EmptyAndUnicodeSafe)
{
    nlp::PorterStemmer stemmer;
    EXPECT_EQ(stemmer.stem(""), "");
    EXPECT_EQ(stemmer.stem("caf\xc3\xa9"), "caf\xc3\xa9");
}

// ---------------------------------------------------------------------- CRF

TEST(CrfMore, LearnsPureTransitionStructure)
{
    // Words carry no signal (all identical); tags strictly alternate.
    // Only the transition weights can explain the data.
    std::vector<nlp::TaggedSentence> corpus;
    for (int i = 0; i < 60; ++i) {
        nlp::TaggedSentence s;
        for (int t = 0; t < 8; ++t) {
            s.words.push_back("x");
            s.tags.push_back(t % 2 == 0 ? nlp::PosTag::Noun
                                        : nlp::PosTag::Verb);
        }
        corpus.push_back(std::move(s));
    }
    nlp::CrfTagger tagger(1024);
    nlp::CrfTagger::TrainOptions opts;
    opts.epochs = 8;
    tagger.train(corpus, opts);
    const auto tags = tagger.tag({"x", "x", "x", "x"});
    EXPECT_EQ(tags[0], nlp::PosTag::Noun);
    EXPECT_EQ(tags[1], nlp::PosTag::Verb);
    EXPECT_EQ(tags[2], nlp::PosTag::Noun);
    EXPECT_EQ(tags[3], nlp::PosTag::Verb);
}

TEST(CrfMore, TrainingImprovesLikelihood)
{
    const auto corpus = nlp::generatePosCorpus(100, 3);
    nlp::CrfTagger tagger(size_t{1} << 14);
    double before = 0.0;
    for (const auto &s : corpus)
        before += tagger.logLikelihood(s);
    nlp::CrfTagger::TrainOptions opts;
    opts.epochs = 3;
    tagger.train(corpus, opts);
    double after = 0.0;
    for (const auto &s : corpus)
        after += tagger.logLikelihood(s);
    EXPECT_GT(after, before);
}

// ------------------------------------------------------------------ decoder

TEST(DecoderMore, WiderBeamNeverWorseScore)
{
    speech::AsrConfig narrow_cfg;
    narrow_cfg.decoder.beam = 3.0;
    speech::AsrConfig wide_cfg;
    wide_cfg.decoder.beam = 100.0;
    const std::vector<std::string> sentences = {"play some music",
                                                "set my alarm"};
    const auto narrow = speech::AsrService::train(sentences, narrow_cfg);
    const auto wide = speech::AsrService::train(sentences, wide_cfg);
    for (const auto &sentence : sentences) {
        const auto n = narrow.transcribeText(sentence);
        const auto w = wide.transcribeText(sentence);
        EXPECT_GE(w.logProb + 1e-9, n.logProb) << sentence;
    }
}

TEST(DecoderMore, DecodeDeterministic)
{
    const std::vector<std::string> sentences = {"who was elected"};
    const auto asr = speech::AsrService::train(sentences);
    const auto a = asr.transcribeText(sentences[0]);
    const auto b = asr.transcribeText(sentences[0]);
    EXPECT_EQ(a.text, b.text);
    EXPECT_DOUBLE_EQ(a.logProb, b.logProb);
}

TEST(DecoderMore, LogProbFinite)
{
    const auto asr = speech::AsrService::train({"open the camera app"});
    const auto result = asr.transcribeText("open the camera app");
    EXPECT_TRUE(std::isfinite(result.logProb));
}

// ------------------------------------------------------------------- vision

TEST(VisionMore, LargerBlobDetectedAtLargerScale)
{
    auto strongest_scale = [](int radius) {
        vision::Image img(192, 192, 40);
        img.fillCircle(96, 96, radius, 230);
        const auto keypoints =
            vision::detectKeypoints(vision::IntegralImage(img));
        float best_resp = -1.0f, best_scale = 0.0f;
        for (const auto &kp : keypoints) {
            if (kp.response > best_resp) {
                best_resp = kp.response;
                best_scale = kp.scale;
            }
        }
        return best_scale;
    };
    EXPECT_LT(strongest_scale(6), strongest_scale(18));
}

TEST(VisionMore, TighterRatioFewerMatches)
{
    const vision::Image img = vision::generateLandmark(5);
    const vision::IntegralImage integral(img);
    auto keypoints = vision::detectKeypoints(integral);
    const auto descriptors = vision::describeKeypoints(integral,
                                                       keypoints);
    const vision::KdTree tree(descriptors);

    const vision::Image query = vision::generateQueryView(5);
    const vision::IntegralImage query_integral(query);
    auto query_kps = vision::detectKeypoints(query_integral);
    const auto query_desc = vision::describeKeypoints(query_integral,
                                                      query_kps);
    const auto loose = vision::matchDescriptors(query_desc, tree, 0.95f);
    const auto tight = vision::matchDescriptors(query_desc, tree, 0.6f);
    EXPECT_GE(loose.goodMatches, tight.goodMatches);
    EXPECT_GT(loose.goodMatches, 0u);
}

TEST(VisionMore, WrongLandmarkScoresFewerMatches)
{
    const auto imm = vision::ImmService::build(6);
    // Matching landmark 2's view: entry 2 must hold more good matches
    // than any other entry.
    const auto result = imm.match(vision::generateQueryView(2));
    EXPECT_EQ(result.bestId, 2);
    EXPECT_GT(result.bestMatches, 5u);
}

// ------------------------------------------------------------------- search

TEST(SearchMore, RareTermsWeighMore)
{
    // A document mentioning a rare entity must outrank one sharing only
    // ubiquitous words.
    std::vector<search::Document> docs;
    docs.push_back({0, "a", "quetzal bird of the cloud forest"});
    for (int i = 1; i <= 20; ++i) {
        docs.push_back({i, "b" + std::to_string(i),
                        "the bird lives near the city and the market"});
    }
    const search::InvertedIndex index(docs);
    const auto hits = index.search("quetzal bird", 3);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].docId, 0);
}

TEST(SearchMore, ScoresStableUnderK)
{
    const search::InvertedIndex index(search::buildEncyclopedia(60, 31));
    const auto top3 = index.search("capital of france", 3);
    const auto top10 = index.search("capital of france", 10);
    for (size_t i = 0; i < top3.size(); ++i) {
        EXPECT_EQ(top3[i].docId, top10[i].docId);
        EXPECT_DOUBLE_EQ(top3[i].score, top10[i].score);
    }
}

// ------------------------------------------------------------------- accel

TEST(AccelMore, MulticoreColumnNearPaperRange)
{
    // Table 5's CMP column sits between 3.5x and 6x; the analytic model
    // must land in that neighbourhood for every kernel.
    accel::AnalyticModel model;
    for (accel::Kernel kernel : accel::suiteKernels()) {
        const double s = model.speedup(
            kernel, accel::Platform::CmpMulticore);
        EXPECT_GT(s, 2.5) << accel::kernelName(kernel);
        EXPECT_LT(s, 7.0) << accel::kernelName(kernel);
    }
}

TEST(AccelMore, HmmRowsAreConservative)
{
    accel::CalibratedModel model;
    // The [35]-based HMM search assumption: 3.7x on GPU/FPGA.
    EXPECT_DOUBLE_EQ(model.speedup(accel::Kernel::HmmSearch,
                                   accel::Platform::Gpu), 3.7);
    EXPECT_DOUBLE_EQ(model.speedup(accel::Kernel::HmmSearchDnn,
                                   accel::Platform::Fpga), 3.7);
    // RASR's framework port carries the DNN numbers.
    EXPECT_DOUBLE_EQ(model.speedup(accel::Kernel::HmmSearchDnn,
                                   accel::Platform::Gpu), 54.7);
}

TEST(AccelMore, ServiceLatencyMonotoneInComponentSpeedup)
{
    accel::CalibratedModel model;
    for (const auto &profile : accel::defaultServiceProfiles()) {
        const double cmp = accel::serviceLatency(
            profile, model, accel::Platform::Cmp);
        const double mt = accel::serviceLatency(
            profile, model, accel::Platform::CmpMulticore);
        EXPECT_LT(mt, cmp);
    }
}

TEST(AccelMore, BaselineSustainedTracksRetiring)
{
    // The analytic baseline must order kernels exactly as their
    // retiring fractions do.
    using accel::Kernel;
    EXPECT_GT(accel::baselineSustainedGflops(Kernel::Dnn),
              accel::baselineSustainedGflops(Kernel::Gmm));
    EXPECT_GT(accel::baselineSustainedGflops(Kernel::Regex),
              accel::baselineSustainedGflops(Kernel::Stemmer));
}

// ------------------------------------------------------------------- dcsim

TEST(DcsimMore, NormalizedTcoMonotoneInThroughput)
{
    double prev = 1e9;
    for (double improvement : {1.0, 2.0, 4.0, 8.0, 16.0}) {
        const double tco = dcsim::normalizedTco(accel::Platform::Gpu,
                                                improvement);
        EXPECT_LT(tco, prev);
        prev = tco;
    }
}

TEST(DcsimMore, DesignerLatencyRowWithoutAccelerators)
{
    accel::CalibratedModel model;
    dcsim::DatacenterDesigner designer(accel::defaultServiceProfiles(),
                                       model);
    dcsim::CandidateSet cpu_phi_only;
    cpu_phi_only.allowGpu = false;
    cpu_phi_only.allowFpga = false;
    // Phi only helps ASR(DNN); aggregated across services the multicore
    // CMP wins min-latency.
    EXPECT_EQ(designer.homogeneousDesign(dcsim::Objective::MinLatency,
                                         cpu_phi_only),
              accel::Platform::CmpMulticore);
}

TEST(DcsimMore, HeterogeneousGainNeverBelowOne)
{
    accel::CalibratedModel model;
    dcsim::DatacenterDesigner designer(accel::defaultServiceProfiles(),
                                       model);
    dcsim::CandidateSet all;
    for (auto objective : {dcsim::Objective::MinLatency,
                           dcsim::Objective::MinTcoWithLatency,
                           dcsim::Objective::MaxPowerEffWithLatency}) {
        for (accel::ServiceKind service : accel::allServices()) {
            EXPECT_GE(designer.heterogeneousGain(objective, all, service),
                      1.0 - 1e-9);
        }
    }
}

TEST(DcsimMore, EmpiricalSimulatorMatchesDeterministicLimit)
{
    // Resampling from a single-valued set IS deterministic service:
    // M/D/1 at load 0.6.
    const std::vector<double> samples(4, 1.0);
    const auto sim = dcsim::simulateQueueEmpirical(samples, 0.6, 20000);
    // M/D/1 mean sojourn: 1 + rho / (2 (1 - rho)) = 1.75.
    EXPECT_NEAR(sim.sojournSeconds.mean(), 1.75, 0.1);

    // Sojourn and utilization grow from rho 0.2 to rho 0.8, and the
    // mean sojourn never undercuts the mean service time.
    const auto light = dcsim::simulateQueueEmpirical(samples, 0.2, 2000);
    const auto heavy = dcsim::simulateQueueEmpirical(samples, 0.8, 2000);
    EXPECT_GT(heavy.sojournSeconds.mean(), light.sojournSeconds.mean());
    EXPECT_GT(heavy.utilization, light.utilization);
    EXPECT_GE(light.sojournSeconds.mean(), 1.0);
}

TEST(DcsimMore, EmpiricalSimulatorReproducible)
{
    const std::vector<double> samples = {0.5, 1.0, 2.0};
    const auto a = dcsim::simulateQueueEmpirical(samples, 0.3, 3000, 5);
    const auto b = dcsim::simulateQueueEmpirical(samples, 0.3, 3000, 5);
    EXPECT_DOUBLE_EQ(a.sojournSeconds.mean(), b.sojournSeconds.mean());
}

TEST(DcsimMore, EmpiricalSimulatorRejectsOverload)
{
    const std::vector<double> samples = {1.0};
    EXPECT_EXIT(dcsim::simulateQueueEmpirical(samples, 1.5),
                ::testing::ExitedWithCode(1), "unstable");
}

TEST(DcsimMore, MachinesRatioAtZeroQueriesIsOne)
{
    EXPECT_DOUBLE_EQ(dcsim::machinesRatio(165.0, 0.0), 1.0);
}

} // namespace
