#include "src/lang/parser.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/lang/lexer.h"

namespace eclarity {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> ParseUnit() {
    Program program;
    while (!Check(TokenKind::kEndOfFile)) {
      if (Check(TokenKind::kConst)) {
        ECLARITY_ASSIGN_OR_RETURN(ConstDecl decl, ParseConst());
        ECLARITY_RETURN_IF_ERROR(program.AddConst(std::move(decl)));
      } else if (Check(TokenKind::kExtern)) {
        ECLARITY_ASSIGN_OR_RETURN(ExternDecl decl, ParseExtern());
        ECLARITY_RETURN_IF_ERROR(program.AddExtern(std::move(decl)));
      } else if (Check(TokenKind::kInterface)) {
        ECLARITY_ASSIGN_OR_RETURN(InterfaceDecl decl, ParseInterface());
        ECLARITY_RETURN_IF_ERROR(program.AddInterface(std::move(decl)));
      } else {
        return Error("expected 'interface', 'extern', or 'const'");
      }
    }
    return program;
  }

  Result<ExprPtr> ParseSingleExpression() {
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!Check(TokenKind::kEndOfFile)) {
      return Error("trailing tokens after expression");
    }
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t idx = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[idx];
  }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  const Token& Advance() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
    return t;
  }
  bool Match(TokenKind kind) {
    if (Check(kind)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Error(const std::string& message) const {
    const Token& t = Peek();
    std::ostringstream os;
    os << "parse error at " << t.line << ":" << t.column << ": " << message
       << " (found " << TokenKindName(t.kind) << ")";
    return InvalidArgumentError(os.str());
  }

  Result<Token> Expect(TokenKind kind, const char* what) {
    if (!Check(kind)) {
      return Error(std::string("expected ") + what);
    }
    return Advance();
  }

  // --- Nesting limit -------------------------------------------------------
  //
  // Every later walker (checker, lowerer, evaluators, printer) recurses down
  // the tree, so the parser bounds the depth of the tree it builds, not
  // only its own recursion: a flat `1J + 1J + ...` is parsed by a loop but
  // builds a left-deep tree as deep as the chain is long. Each parenthesis,
  // unary operator, binary operator, ternary, call and block adds a level.
  // depth_ counts the levels open above the current token; height_ is the
  // height of the expression the last Parse* call built. Entering a level
  // checks depth_ at the token that opens it, so the parser's own
  // recursion stays bounded too.

  Status NestingError(const Token& at) const {
    std::ostringstream os;
    os << "parse error at " << at.line << ":" << at.column
       << ": nesting deeper than " << kMaxNesting << " levels";
    return ResourceExhaustedError(os.str());
  }

  Status Enter() {
    if (++depth_ > kMaxNesting) {
      return NestingError(Peek());
    }
    return OkStatus();
  }

  // Records the height of the expression just built under `at`.
  Status Built(int height, const Token& at) {
    height_ = height;
    if (depth_ + height > kMaxNesting) {
      return NestingError(at);
    }
    return OkStatus();
  }

  // Attaches the position of `token` to `node` and returns it.
  template <typename NodePtr>
  NodePtr At(const Token& token, NodePtr node) {
    node->line = token.line;
    node->column = token.column;
    return node;
  }

  Result<ConstDecl> ParseConst() {
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kConst, "'const'").status());
    ECLARITY_ASSIGN_OR_RETURN(Token name,
                              Expect(TokenKind::kIdentifier, "constant name"));
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kAssign, "'='").status());
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'").status());
    ConstDecl decl;
    decl.name = name.text;
    decl.value = std::move(value);
    return decl;
  }

  Result<ExternDecl> ParseExtern() {
    ECLARITY_ASSIGN_OR_RETURN(Token kw, Expect(TokenKind::kExtern, "'extern'"));
    ECLARITY_RETURN_IF_ERROR(
        Expect(TokenKind::kInterface, "'interface'").status());
    ECLARITY_ASSIGN_OR_RETURN(
        Token name, Expect(TokenKind::kIdentifier, "interface name"));
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());
    ExternDecl decl;
    decl.name = name.text;
    decl.line = kw.line;
    if (!Check(TokenKind::kRParen)) {
      for (;;) {
        ECLARITY_ASSIGN_OR_RETURN(
            Token param, Expect(TokenKind::kIdentifier, "parameter name"));
        decl.params.push_back(param.text);
        if (!Match(TokenKind::kComma)) {
          break;
        }
      }
    }
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'").status());
    return decl;
  }

  Result<InterfaceDecl> ParseInterface() {
    ECLARITY_ASSIGN_OR_RETURN(Token kw,
                              Expect(TokenKind::kInterface, "'interface'"));
    ECLARITY_ASSIGN_OR_RETURN(
        Token name, Expect(TokenKind::kIdentifier, "interface name"));
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());
    InterfaceDecl decl;
    decl.name = name.text;
    decl.line = kw.line;
    if (!Check(TokenKind::kRParen)) {
      for (;;) {
        ECLARITY_ASSIGN_OR_RETURN(
            Token param, Expect(TokenKind::kIdentifier, "parameter name"));
        decl.params.push_back(param.text);
        if (!Match(TokenKind::kComma)) {
          break;
        }
      }
    }
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    ECLARITY_ASSIGN_OR_RETURN(decl.body, ParseBlock());
    return decl;
  }

  Result<Block> ParseBlock() {
    ECLARITY_RETURN_IF_ERROR(Enter());
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "'{'").status());
    Block block;
    while (!Check(TokenKind::kRBrace)) {
      if (Check(TokenKind::kEndOfFile)) {
        return Error("unterminated block (missing '}')");
      }
      ECLARITY_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStmt());
      block.statements.push_back(std::move(stmt));
    }
    Advance();  // consume '}'
    --depth_;
    return block;
  }

  Result<StmtPtr> ParseStmt() {
    switch (Peek().kind) {
      case TokenKind::kLet:
        return ParseLet();
      case TokenKind::kEcv:
        return ParseEcv();
      case TokenKind::kIf:
        return ParseIf();
      case TokenKind::kFor:
        return ParseFor();
      case TokenKind::kReturn:
        return ParseReturn();
      case TokenKind::kIdentifier:
        if (Peek(1).kind == TokenKind::kAssign) {
          return ParseAssign();
        }
        return Error("expected a statement (assignments need '=')");
      default:
        return Error("expected a statement");
    }
  }

  Result<StmtPtr> ParseLet() {
    const Token& kw = Advance();  // let
    const bool is_mut = Match(TokenKind::kMut);
    ECLARITY_ASSIGN_OR_RETURN(Token name,
                              Expect(TokenKind::kIdentifier, "variable name"));
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kAssign, "'='").status());
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr init, ParseExpr());
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'").status());
    return StmtPtr(At(kw, std::make_unique<LetStmt>(name.text, is_mut,
                                                    std::move(init))));
  }

  Result<StmtPtr> ParseAssign() {
    const Token& name = Advance();  // identifier
    Advance();                      // '='
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'").status());
    return StmtPtr(
        At(name, std::make_unique<AssignStmt>(name.text, std::move(value))));
  }

  Result<StmtPtr> ParseEcv() {
    const Token& kw = Advance();  // ecv
    ECLARITY_ASSIGN_OR_RETURN(Token name,
                              Expect(TokenKind::kIdentifier, "ECV name"));
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kTilde, "'~'").status());
    ECLARITY_ASSIGN_OR_RETURN(
        Token dist_name, Expect(TokenKind::kIdentifier, "distribution name"));
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());

    EcvDistSpec spec;
    if (dist_name.text == "bernoulli") {
      spec.kind = EcvDistKind::kBernoulli;
      ECLARITY_ASSIGN_OR_RETURN(ExprPtr p, ParseExpr());
      spec.params.push_back(std::move(p));
    } else if (dist_name.text == "uniform_int") {
      spec.kind = EcvDistKind::kUniformInt;
      ECLARITY_ASSIGN_OR_RETURN(ExprPtr lo, ParseExpr());
      ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','").status());
      ECLARITY_ASSIGN_OR_RETURN(ExprPtr hi, ParseExpr());
      spec.params.push_back(std::move(lo));
      spec.params.push_back(std::move(hi));
    } else if (dist_name.text == "categorical") {
      spec.kind = EcvDistKind::kCategorical;
      for (;;) {
        ECLARITY_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
        ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kColon, "':'").status());
        ECLARITY_ASSIGN_OR_RETURN(ExprPtr prob, ParseExpr());
        spec.params.push_back(std::move(value));
        spec.params.push_back(std::move(prob));
        if (!Match(TokenKind::kComma)) {
          break;
        }
      }
    } else {
      return Error("unknown ECV distribution '" + dist_name.text +
                   "' (expected bernoulli, categorical, or uniform_int)");
    }
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'").status());
    return StmtPtr(
        At(kw, std::make_unique<EcvStmt>(name.text, std::move(spec))));
  }

  Result<StmtPtr> ParseIf() {
    const Token& kw = Advance();  // if
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr condition, ParseExpr());
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    ECLARITY_ASSIGN_OR_RETURN(Block then_block, ParseBlock());
    std::optional<Block> else_block;
    if (Match(TokenKind::kElse)) {
      if (Check(TokenKind::kIf)) {
        // else-if chains desugar to a nested block holding the inner if.
        ECLARITY_RETURN_IF_ERROR(Enter());
        ECLARITY_ASSIGN_OR_RETURN(StmtPtr inner, ParseIf());
        --depth_;
        Block wrapper;
        wrapper.statements.push_back(std::move(inner));
        else_block = std::move(wrapper);
      } else {
        ECLARITY_ASSIGN_OR_RETURN(Block parsed, ParseBlock());
        else_block = std::move(parsed);
      }
    }
    return StmtPtr(At(kw, std::make_unique<IfStmt>(std::move(condition),
                                                   std::move(then_block),
                                                   std::move(else_block))));
  }

  Result<StmtPtr> ParseFor() {
    const Token& kw = Advance();  // for
    ECLARITY_ASSIGN_OR_RETURN(Token var,
                              Expect(TokenKind::kIdentifier, "loop variable"));
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kIn, "'in'").status());
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr begin, ParseExpr());
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kDotDot, "'..'").status());
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr end, ParseExpr());
    ECLARITY_ASSIGN_OR_RETURN(Block body, ParseBlock());
    return StmtPtr(At(kw, std::make_unique<ForStmt>(var.text, std::move(begin),
                                                    std::move(end),
                                                    std::move(body))));
  }

  Result<StmtPtr> ParseReturn() {
    const Token& kw = Advance();  // return
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'").status());
    return StmtPtr(At(kw, std::make_unique<ReturnStmt>(std::move(value))));
  }

  // --- Expressions, precedence climbing -----------------------------------

  Result<ExprPtr> ParseExpr() { return ParseTernary(); }

  Result<ExprPtr> ParseTernary() {
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr condition, ParseOr());
    if (!Check(TokenKind::kQuestion)) {
      return condition;
    }
    ECLARITY_RETURN_IF_ERROR(Enter());
    const Token& q = Advance();
    int height = height_;
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr then_value, ParseExpr());
    height = std::max(height, height_);
    ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kColon, "':'").status());
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr else_value, ParseExpr());
    --depth_;
    ECLARITY_RETURN_IF_ERROR(Built(std::max(height, height_) + 1, q));
    return ExprPtr(std::make_unique<ConditionalExpr>(
        std::move(condition), std::move(then_value), std::move(else_value)));
  }

  // Joins `lhs` (of height `lhs_height`) and the operand just parsed under
  // binary operator `op`, parsed at `at`.
  Result<ExprPtr> Join(BinaryOp op, const Token& at, ExprPtr lhs,
                       int lhs_height, ExprPtr rhs) {
    ECLARITY_RETURN_IF_ERROR(Built(std::max(lhs_height, height_) + 1, at));
    return ExprPtr(
        std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs)));
  }

  Result<ExprPtr> ParseOr() {
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Check(TokenKind::kOrOr)) {
      const Token& t = Advance();
      const int lhs_height = height_;
      ECLARITY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      ECLARITY_ASSIGN_OR_RETURN(lhs, Join(BinaryOp::kOr, t, std::move(lhs),
                                          lhs_height, std::move(rhs)));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparison());
    while (Check(TokenKind::kAndAnd)) {
      const Token& t = Advance();
      const int lhs_height = height_;
      ECLARITY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparison());
      ECLARITY_ASSIGN_OR_RETURN(lhs, Join(BinaryOp::kAnd, t, std::move(lhs),
                                          lhs_height, std::move(rhs)));
    }
    return lhs;
  }

  Result<ExprPtr> ParseComparison() {
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    BinaryOp op;
    switch (Peek().kind) {
      case TokenKind::kEq: op = BinaryOp::kEq; break;
      case TokenKind::kNe: op = BinaryOp::kNe; break;
      case TokenKind::kLt: op = BinaryOp::kLt; break;
      case TokenKind::kLe: op = BinaryOp::kLe; break;
      case TokenKind::kGt: op = BinaryOp::kGt; break;
      case TokenKind::kGe: op = BinaryOp::kGe; break;
      default:
        return lhs;
    }
    const Token& t = Advance();
    const int lhs_height = height_;
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return Join(op, t, std::move(lhs), lhs_height, std::move(rhs));
  }

  Result<ExprPtr> ParseAdditive() {
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (Check(TokenKind::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Check(TokenKind::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      const Token& t = Advance();
      const int lhs_height = height_;
      ECLARITY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      ECLARITY_ASSIGN_OR_RETURN(
          lhs, Join(op, t, std::move(lhs), lhs_height, std::move(rhs)));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (Check(TokenKind::kStar)) {
        op = BinaryOp::kMul;
      } else if (Check(TokenKind::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (Check(TokenKind::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      const Token& t = Advance();
      const int lhs_height = height_;
      ECLARITY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      ECLARITY_ASSIGN_OR_RETURN(
          lhs, Join(op, t, std::move(lhs), lhs_height, std::move(rhs)));
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (!Check(TokenKind::kMinus) && !Check(TokenKind::kBang)) {
      return ParsePrimary();
    }
    ECLARITY_RETURN_IF_ERROR(Enter());
    const Token& t = Advance();
    const UnaryOp op =
        t.kind == TokenKind::kMinus ? UnaryOp::kNeg : UnaryOp::kNot;
    ECLARITY_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    --depth_;
    ECLARITY_RETURN_IF_ERROR(Built(height_ + 1, t));
    return ExprPtr(At(t, std::make_unique<UnaryExpr>(op, std::move(operand))));
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    height_ = 0;  // literals and names are leaves
    switch (t.kind) {
      case TokenKind::kNumber: {
        Advance();
        return ExprPtr(At(t, std::make_unique<NumberLit>(t.number)));
      }
      case TokenKind::kEnergy: {
        Advance();
        return ExprPtr(At(t, std::make_unique<EnergyLit>(t.number, t.text)));
      }
      case TokenKind::kTrue: {
        Advance();
        return ExprPtr(At(t, std::make_unique<BoolLit>(true)));
      }
      case TokenKind::kFalse: {
        Advance();
        return ExprPtr(At(t, std::make_unique<BoolLit>(false)));
      }
      case TokenKind::kLParen: {
        ECLARITY_RETURN_IF_ERROR(Enter());
        Advance();
        ECLARITY_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
        --depth_;
        ECLARITY_RETURN_IF_ERROR(Built(height_ + 1, t));
        return inner;
      }
      case TokenKind::kIdentifier: {
        Advance();
        if (!Check(TokenKind::kLParen)) {
          return ExprPtr(At(t, std::make_unique<VarRef>(t.text)));
        }
        ECLARITY_RETURN_IF_ERROR(Enter());
        Advance();  // '('
        std::vector<ExprPtr> args;
        std::vector<std::string> string_args;
        int height = 0;
        if (!Check(TokenKind::kRParen)) {
          for (;;) {
            if (Check(TokenKind::kString)) {
              // String arguments (abstract unit names for au(...)) are kept
              // out-of-band; a placeholder keeps positional alignment.
              const Token& s = Advance();
              string_args.push_back(s.text);
              args.push_back(std::make_unique<NumberLit>(0.0));
            } else {
              ECLARITY_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
              height = std::max(height, height_);
            }
            if (!Match(TokenKind::kComma)) {
              break;
            }
          }
        }
        ECLARITY_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
        --depth_;
        ECLARITY_RETURN_IF_ERROR(Built(height + 1, t));
        auto call = std::make_unique<CallExpr>(t.text, std::move(args));
        call->string_args = std::move(string_args);
        return ExprPtr(At(t, std::move(call)));
      }
      default:
        return Error("expected an expression");
    }
  }

  // Deep enough for any hand-written interface, shallow enough that a nest
  // at the limit still runs check, eval and bounds under ASan's larger
  // stack frames on an 8 MiB stack.
  static constexpr int kMaxNesting = 256;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
  int height_ = 0;
};

}  // namespace

Result<Program> ParseProgram(std::string_view source) {
  ECLARITY_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseUnit();
}

Result<ExprPtr> ParseExpression(std::string_view source) {
  ECLARITY_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseSingleExpression();
}

}  // namespace eclarity
