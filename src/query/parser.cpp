#include "query/parser.hpp"

#include <sstream>

#include "common/error.hpp"
#include "query/lexer.hpp"

namespace cq::qry {

using alg::AggKind;
using alg::AggSpec;
using alg::CmpOp;
using alg::Expr;
using alg::ExprPtr;
using rel::Value;

namespace {

class Parser {
 public:
  explicit Parser(const std::string& sql) : sql_(sql), tokens_(tokenize(sql)) {}

  /// Recursion ceiling for nested expressions. Pathological inputs like
  /// "((((...." or "NOT NOT NOT ..." must fail with a ParseError, not
  /// exhaust the stack (each nesting level costs several parse frames).
  static constexpr std::size_t kMaxExprDepth = 200;

  SpjQuery parse_select() {
    expect_keyword("SELECT");
    SpjQuery q;
    if (accept_keyword("DISTINCT")) q.distinct = true;
    parse_select_list(q);
    expect_keyword("FROM");
    parse_from_list(q);
    if (accept_keyword("WHERE")) {
      q.where = parse_expr();
    } else {
      q.where = Expr::always_true();
    }
    if (accept_keyword("GROUP")) {
      expect_keyword("BY");
      do {
        q.group_by.push_back(expect_identifier("GROUP BY column"));
      } while (accept_symbol(","));
    }
    if (accept_keyword("HAVING")) {
      q.having = parse_expr();
    }
    if (accept_keyword("ORDER")) {
      expect_keyword("BY");
      do {
        SpjQuery::OrderKey key;
        key.column = expect_identifier("ORDER BY column");
        if (accept_keyword("DESC")) {
          key.descending = true;
        } else {
          accept_keyword("ASC");
        }
        q.order_by.push_back(std::move(key));
      } while (accept_symbol(","));
    }
    expect_end();
    q.validate();
    return q;
  }

  ExprPtr parse_standalone_predicate() {
    ExprPtr e = parse_expr();
    expect_end();
    return e;
  }

 private:
  /// RAII depth ticket for the recursive productions (NOT chains and
  /// parenthesized/unary factors are the unbounded ones).
  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (parser_.depth_ >= kMaxExprDepth) parser_.fail("expression nesting too deep");
      ++parser_.depth_;
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser& parser_;
  };

  [[noreturn]] void fail(const std::string& message) const {
    std::ostringstream os;
    os << message << " near offset " << peek().offset << " (token '" << peek().text
       << "') in: " << sql_;
    throw common::ParseError(os.str());
  }

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() { return tokens_[pos_++]; }

  bool accept_keyword(const char* kw) {
    if (peek().is_keyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect_keyword(const char* kw) {
    if (!accept_keyword(kw)) fail(std::string("expected ") + kw);
  }
  bool accept_symbol(const char* sym) {
    if (peek().is_symbol(sym)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect_symbol(const char* sym) {
    if (!accept_symbol(sym)) fail(std::string("expected '") + sym + "'");
  }
  std::string expect_identifier(const char* what) {
    if (peek().kind != TokenKind::kIdentifier) fail(std::string("expected ") + what);
    return advance().text;
  }
  void expect_end() {
    if (peek().kind != TokenKind::kEnd) fail("unexpected trailing input");
  }

  [[nodiscard]] static std::optional<AggKind> agg_kind(const Token& t) {
    if (t.kind != TokenKind::kKeyword) return std::nullopt;
    if (t.text == "SUM") return AggKind::kSum;
    if (t.text == "COUNT") return AggKind::kCount;
    if (t.text == "AVG") return AggKind::kAvg;
    if (t.text == "MIN") return AggKind::kMin;
    if (t.text == "MAX") return AggKind::kMax;
    return std::nullopt;
  }

  void parse_select_list(SpjQuery& q) {
    if (accept_symbol("*")) return;  // SELECT *
    do {
      if (auto kind = agg_kind(peek())) {
        advance();
        expect_symbol("(");
        AggSpec spec;
        spec.kind = *kind;
        if (accept_symbol("*")) {
          if (spec.kind != AggKind::kCount) fail("only COUNT accepts *");
          // Not `= "*"`: GCC 12 raises a false -Wrestrict on that assignment.
          spec.column = std::string(1, '*');
        } else {
          spec.column = expect_identifier("aggregate column");
        }
        expect_symbol(")");
        if (accept_keyword("AS")) spec.alias = expect_identifier("alias");
        q.aggregates.push_back(std::move(spec));
      } else {
        q.projection.push_back(expect_identifier("projection column"));
      }
    } while (accept_symbol(","));
    if (!q.aggregates.empty() && !q.projection.empty()) {
      // Plain columns next to aggregates must appear in GROUP BY; we check
      // in validate() after GROUP BY is parsed. Here we fold them into
      // group-key order implicitly by leaving both lists populated.
      ;
    }
  }

  void parse_from_list(SpjQuery& q) {
    do {
      TableRef ref;
      ref.table = expect_identifier("table name");
      if (accept_keyword("AS")) {
        ref.alias = expect_identifier("table alias");
      } else if (peek().kind == TokenKind::kIdentifier) {
        ref.alias = advance().text;  // FROM Stocks s
      }
      q.from.push_back(std::move(ref));
    } while (accept_symbol(","));
  }

  // expr := or
  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (accept_keyword("OR")) lhs = Expr::logical_or(lhs, parse_and());
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (accept_keyword("AND")) lhs = Expr::logical_and(lhs, parse_not());
    return lhs;
  }

  ExprPtr parse_not() {
    DepthGuard depth(*this);
    if (accept_keyword("NOT")) return Expr::logical_not(parse_not());
    return parse_comparison();
  }

  ExprPtr parse_comparison() {
    // Boolean literal shortcuts.
    if (peek().is_keyword("TRUE")) {
      advance();
      return Expr::lit(Value(true));
    }
    if (peek().is_keyword("FALSE")) {
      advance();
      return Expr::lit(Value(false));
    }
    ExprPtr lhs = parse_operand();

    if (accept_keyword("IS")) {
      const bool negated = accept_keyword("NOT");
      expect_keyword("NULL");
      return Expr::is_null(lhs, negated);
    }
    bool negated = false;
    if (peek().is_keyword("NOT") &&
        (peek(1).is_keyword("IN") || peek(1).is_keyword("BETWEEN") ||
         peek(1).is_keyword("LIKE"))) {
      advance();
      negated = true;
    }
    if (accept_keyword("IN")) {
      expect_symbol("(");
      std::vector<Value> values;
      do {
        values.push_back(parse_literal_value());
      } while (accept_symbol(","));
      expect_symbol(")");
      return Expr::in_list(lhs, std::move(values), negated);
    }
    if (accept_keyword("BETWEEN")) {
      Value lo = parse_literal_value();
      expect_keyword("AND");
      Value hi = parse_literal_value();
      ExprPtr between = Expr::between(lhs, std::move(lo), std::move(hi));
      return negated ? Expr::logical_not(between) : between;
    }
    if (accept_keyword("LIKE")) {
      if (peek().kind != TokenKind::kString) fail("LIKE expects a string literal");
      std::string pattern = advance().text;
      if (pattern.empty() || pattern.back() != '%' ||
          pattern.find('%') != pattern.size() - 1 ||
          pattern.find('_') != std::string::npos) {
        fail("only prefix LIKE patterns ('abc%') are supported");
      }
      pattern.pop_back();
      ExprPtr like = Expr::like_prefix(lhs, std::move(pattern));
      return negated ? Expr::logical_not(like) : like;
    }

    static constexpr std::pair<const char*, CmpOp> kCmps[] = {
        {"=", CmpOp::kEq}, {"<>", CmpOp::kNe}, {"<=", CmpOp::kLe},
        {">=", CmpOp::kGe}, {"<", CmpOp::kLt}, {">", CmpOp::kGt}};
    for (const auto& [sym, op] : kCmps) {
      if (accept_symbol(sym)) return Expr::cmp(op, lhs, parse_operand());
    }
    return lhs;  // bare operand used as a predicate (e.g. TRUE)
  }

  // operand := term (('+'|'-') term)*
  ExprPtr parse_operand() {
    ExprPtr lhs = parse_term();
    for (;;) {
      if (accept_symbol("+")) {
        lhs = Expr::arith(alg::ArithOp::kAdd, lhs, parse_term());
      } else if (accept_symbol("-")) {
        lhs = Expr::arith(alg::ArithOp::kSub, lhs, parse_term());
      } else {
        return lhs;
      }
    }
  }

  // term := factor (('*'|'/') factor)*
  ExprPtr parse_term() {
    ExprPtr lhs = parse_factor();
    for (;;) {
      if (accept_symbol("*")) {
        lhs = Expr::arith(alg::ArithOp::kMul, lhs, parse_factor());
      } else if (accept_symbol("/")) {
        lhs = Expr::arith(alg::ArithOp::kDiv, lhs, parse_factor());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_factor() {
    DepthGuard depth(*this);
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kInteger:
        advance();
        return Expr::lit(Value(t.integer));
      case TokenKind::kDouble:
        advance();
        return Expr::lit(Value(t.real));
      case TokenKind::kString:
        advance();
        return Expr::lit(Value(t.text));
      case TokenKind::kIdentifier:
        advance();
        return Expr::col(t.text);
      case TokenKind::kKeyword:
        if (t.text == "NULL") {
          advance();
          return Expr::lit(Value::null());
        }
        if (t.text == "TRUE") {
          advance();
          return Expr::lit(Value(true));
        }
        if (t.text == "FALSE") {
          advance();
          return Expr::lit(Value(false));
        }
        fail("unexpected keyword in expression");
      case TokenKind::kSymbol:
        if (t.text == "(") {
          advance();
          ExprPtr inner = parse_expr();
          expect_symbol(")");
          return inner;
        }
        if (t.text == "-") {  // unary minus on a literal or factor
          advance();
          return Expr::arith(alg::ArithOp::kSub, Expr::lit(Value(std::int64_t{0})),
                             parse_factor());
        }
        fail("unexpected symbol in expression");
      case TokenKind::kEnd:
        fail("unexpected end of input in expression");
    }
    fail("unexpected token");
  }

  Value parse_literal_value() {
    const Token& t = peek();
    bool negative = false;
    if (t.is_symbol("-")) {
      advance();
      negative = true;
    }
    const Token& v = peek();
    switch (v.kind) {
      case TokenKind::kInteger:
        advance();
        return Value(negative ? -v.integer : v.integer);
      case TokenKind::kDouble:
        advance();
        return Value(negative ? -v.real : v.real);
      case TokenKind::kString:
        if (negative) fail("cannot negate a string literal");
        advance();
        return Value(v.text);
      case TokenKind::kKeyword:
        if (v.text == "NULL" && !negative) {
          advance();
          return Value::null();
        }
        if (v.text == "TRUE" && !negative) {
          advance();
          return Value(true);
        }
        if (v.text == "FALSE" && !negative) {
          advance();
          return Value(false);
        }
        [[fallthrough]];
      default:
        fail("expected a literal value");
    }
  }

  const std::string& sql_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

SpjQuery parse_query(const std::string& sql) { return Parser(sql).parse_select(); }

alg::ExprPtr parse_predicate(const std::string& sql) {
  return Parser(sql).parse_standalone_predicate();
}

}  // namespace cq::qry
