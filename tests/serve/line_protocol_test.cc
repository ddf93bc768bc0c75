#include "serve/line_protocol.h"

#include <gtest/gtest.h>

namespace dfs::serve {
namespace {

TEST(JsonLineTest, ParsesScalars) {
  auto object = ParseJsonLine(
      R"({"name":"COMPAS","count":3,"ratio":0.25,"neg":-1.5e2,"on":true,)"
      R"("off":false})");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(GetString(*object, "name").value(), "COMPAS");
  EXPECT_EQ(GetNumber(*object, "count").value(), 3.0);
  EXPECT_EQ(GetNumber(*object, "ratio").value(), 0.25);
  EXPECT_EQ(GetNumber(*object, "neg").value(), -150.0);
  EXPECT_TRUE(GetBool(*object, "on").value());
  EXPECT_FALSE(GetBool(*object, "off").value());
}

TEST(JsonLineTest, RoundTripsEscapes) {
  JsonObject object;
  object["text"] = JsonValue::String("line\nwith \"quotes\" and \\slash");
  const std::string line = WriteJsonLine(object);
  auto parsed = ParseJsonLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(GetString(*parsed, "text").value(),
            "line\nwith \"quotes\" and \\slash");
}

TEST(JsonLineTest, EmptyObjectRoundTrips) {
  auto parsed = ParseJsonLine(WriteJsonLine({}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(JsonLineTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJsonLine("").ok());
  EXPECT_FALSE(ParseJsonLine("not json").ok());
  EXPECT_FALSE(ParseJsonLine(R"({"a":1)").ok());
  EXPECT_FALSE(ParseJsonLine(R"({"a" 1})").ok());
  EXPECT_FALSE(ParseJsonLine(R"({"a":})").ok());
  EXPECT_FALSE(ParseJsonLine(R"({"a":1} extra)").ok());
  EXPECT_FALSE(ParseJsonLine(R"({"a":[1,2]})").ok());  // no nesting
  EXPECT_FALSE(ParseJsonLine(R"({"a":{"b":1}})").ok());
}

TEST(JsonLineTest, TypedGettersReportWrongTypes) {
  auto object = ParseJsonLine(R"({"n":1,"s":"x"})");
  ASSERT_TRUE(object.ok());
  EXPECT_FALSE(GetString(*object, "n").ok());
  EXPECT_FALSE(GetNumber(*object, "s").ok());
  EXPECT_FALSE(GetBool(*object, "n").ok());
  EXPECT_FALSE(GetNumber(*object, "missing").ok());
  EXPECT_FALSE(GetOptionalNumber(*object, "s").has_value());
  EXPECT_EQ(GetOptionalNumber(*object, "n").value(), 1.0);
}

TEST(RequestParseTest, ParsesSubmitWithConstraints) {
  auto request = ParseRequestLine(
      R"js({"op":"submit","dataset":"COMPAS","model":"dt","strategy":"SFS(NR)",)js"
      R"js("min_f1":0.65,"min_eo":0.9,"max_features":0.5,"budget":2.5,)js"
      R"js("priority":3,"seed":7,"hpo":true})js");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->op, Request::Op::kSubmit);
  const JobRequest& job = request->submit;
  EXPECT_EQ(job.dataset, "COMPAS");
  EXPECT_EQ(job.model, ml::ModelKind::kDecisionTree);
  EXPECT_EQ(job.strategy, "SFS(NR)");
  EXPECT_EQ(job.constraint_set.min_f1, 0.65);
  EXPECT_EQ(job.constraint_set.max_search_seconds, 2.5);
  ASSERT_TRUE(job.constraint_set.min_equal_opportunity.has_value());
  EXPECT_EQ(*job.constraint_set.min_equal_opportunity, 0.9);
  ASSERT_TRUE(job.constraint_set.max_feature_fraction.has_value());
  EXPECT_EQ(*job.constraint_set.max_feature_fraction, 0.5);
  EXPECT_FALSE(job.constraint_set.min_safety.has_value());
  EXPECT_FALSE(job.constraint_set.privacy_epsilon.has_value());
  EXPECT_EQ(job.priority, 3);
  EXPECT_EQ(job.seed, 7u);
  EXPECT_TRUE(job.use_hpo);
  EXPECT_FALSE(job.maximize_utility);
}

TEST(RequestParseTest, SubmitDefaults) {
  auto request =
      ParseRequestLine(R"({"op":"submit","dataset":"Adult"})");
  ASSERT_TRUE(request.ok());
  const JobRequest& job = request->submit;
  EXPECT_EQ(job.model, ml::ModelKind::kLogisticRegression);
  EXPECT_EQ(job.strategy, "auto");
  EXPECT_EQ(job.constraint_set.min_f1, 0.7);
  EXPECT_EQ(job.constraint_set.max_search_seconds, 60.0);  // service default
  EXPECT_EQ(job.priority, 0);
  EXPECT_EQ(job.seed, 42u);
}

TEST(RequestParseTest, RejectsBadSubmits) {
  // Missing dataset.
  EXPECT_FALSE(ParseRequestLine(R"({"op":"submit"})").ok());
  // Unknown model.
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"submit","dataset":"x","model":"GPT"})").ok());
  // Constraint out of range (validated by ConstraintSetBuilder).
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"submit","dataset":"x","min_f1":1.5})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"submit","dataset":"x","budget":-1})").ok());
}

TEST(RequestParseTest, ParsesIdOps) {
  for (const char* op : {"status", "result", "cancel"}) {
    auto request = ParseRequestLine(
        std::string(R"({"op":")") + op + R"(","id":12})");
    ASSERT_TRUE(request.ok()) << op;
    EXPECT_EQ(request->id, 12u);
  }
  EXPECT_FALSE(ParseRequestLine(R"({"op":"status"})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"status","id":0})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"status","id":1.5})").ok());
}

TEST(RequestParseTest, ParsesBareOpsAndRejectsUnknown) {
  EXPECT_EQ(ParseRequestLine(R"({"op":"ping"})")->op, Request::Op::kPing);
  EXPECT_EQ(ParseRequestLine(R"({"op":"stats"})")->op, Request::Op::kStats);
  EXPECT_EQ(ParseRequestLine(R"({"op":"shutdown"})")->op,
            Request::Op::kShutdown);
  EXPECT_FALSE(ParseRequestLine(R"({"op":"fly"})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"id":1})").ok());
}

TEST(RequestParseTest, FormatSubmitLineRoundTrips) {
  JobRequest job;
  job.dataset = "German Credit";
  job.model = ml::ModelKind::kNaiveBayes;
  job.strategy = "TPE(FCBF)";
  constraints::ConstraintSetBuilder builder;
  builder.MinF1(0.72).MaxSearchSeconds(1.5).MinEqualOpportunity(0.85)
      .PrivacyEpsilon(10.0);
  job.constraint_set = builder.Build().value();
  job.use_hpo = true;
  job.priority = -2;
  job.seed = 99;

  auto parsed = ParseRequestLine(FormatSubmitLine(job));
  ASSERT_TRUE(parsed.ok());
  const JobRequest& round = parsed->submit;
  EXPECT_EQ(round.dataset, job.dataset);
  EXPECT_EQ(round.model, job.model);
  EXPECT_EQ(round.strategy, job.strategy);
  EXPECT_EQ(round.constraint_set.min_f1, 0.72);
  EXPECT_EQ(round.constraint_set.max_search_seconds, 1.5);
  EXPECT_EQ(round.constraint_set.min_equal_opportunity, 0.85);
  EXPECT_EQ(round.constraint_set.privacy_epsilon, 10.0);
  EXPECT_TRUE(round.use_hpo);
  EXPECT_EQ(round.priority, -2);
  EXPECT_EQ(round.seed, 99u);
}

TEST(JobStateTest, NamesAndTerminality) {
  EXPECT_STREQ(JobStateName(JobState::kQueued), "QUEUED");
  EXPECT_STREQ(JobStateName(JobState::kTimedOut), "TIMED_OUT");
  EXPECT_FALSE(IsTerminalState(JobState::kQueued));
  EXPECT_FALSE(IsTerminalState(JobState::kRunning));
  EXPECT_TRUE(IsTerminalState(JobState::kDone));
  EXPECT_TRUE(IsTerminalState(JobState::kFailed));
  EXPECT_TRUE(IsTerminalState(JobState::kCancelled));
  EXPECT_TRUE(IsTerminalState(JobState::kTimedOut));
}

TEST(JobStateTest, TransitionRules) {
  EXPECT_TRUE(IsValidTransition(JobState::kQueued, JobState::kRunning));
  EXPECT_TRUE(IsValidTransition(JobState::kQueued, JobState::kCancelled));
  EXPECT_FALSE(IsValidTransition(JobState::kQueued, JobState::kDone));
  EXPECT_TRUE(IsValidTransition(JobState::kRunning, JobState::kDone));
  EXPECT_TRUE(IsValidTransition(JobState::kRunning, JobState::kTimedOut));
  EXPECT_FALSE(IsValidTransition(JobState::kDone, JobState::kCancelled));
  EXPECT_FALSE(IsValidTransition(JobState::kCancelled, JobState::kRunning));
}

TEST(JobStateTest, JobEnforcesTransitions) {
  JobRequest request;
  request.dataset = "x";
  Job job(1, std::move(request));
  EXPECT_EQ(job.state(), JobState::kQueued);
  EXPECT_FALSE(job.TryTransition(JobState::kDone));  // must run first
  EXPECT_TRUE(job.TryTransition(JobState::kRunning));
  EXPECT_TRUE(job.TryTransition(JobState::kDone));
  EXPECT_FALSE(job.TryTransition(JobState::kCancelled));  // terminal is final
  EXPECT_EQ(job.state(), JobState::kDone);
  EXPECT_GE(job.seconds_since_terminal(), 0.0);
}

}  // namespace
}  // namespace dfs::serve
