//! Recursive-descent parser for TFML.
//!
//! Precedence (loosest to tightest): `;` sequencing, `: ty` annotation,
//! `orelse`, `andalso`, comparisons, `::` (right-associative), `+ -`,
//! `* div mod`, prefix `~`/`not`, application, atoms. The expression
//! keywords `if`/`fn`/`case`/`let` may begin any operand and extend
//! maximally to the right, as in Standard ML.
//!
//! Clausal `fun` definitions are desugared here into a `case` over the
//! parameter tuple (see [`crate::ast`]).

use crate::ast::*;
use crate::error::{ParseError, ParseResult};
use crate::lexer::{lex, Token, TokenKind};
use crate::span::Span;

/// Parses a complete TFML program: declarations followed by a main
/// expression.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse_program(src: &str) -> ParseResult<Program> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let mut decls = Vec::new();
    loop {
        match p.peek_kind() {
            TokenKind::Datatype => decls.push(Decl::Datatype(p.datatype_decl()?)),
            TokenKind::Fun => decls.push(Decl::Fun(p.fun_decl_group()?)),
            TokenKind::Val => {
                p.bump();
                let pat = p.pattern()?;
                p.expect(TokenKind::Eq)?;
                let body = p.expr()?;
                decls.push(Decl::Val(pat, body));
            }
            _ => break,
        }
        // Declarations may be separated by `;`; because application is
        // juxtaposition, a `;` is *required* between the last declaration
        // and a main expression that starts with an atom.
        p.eat(&TokenKind::Semicolon);
    }
    let main = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(Program { decls, main })
}

/// Parses a single expression (used by tests and the REPL-style examples).
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse_expr(src: &str) -> ParseResult<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    fresh: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            fresh: 0,
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_span(&self) -> Span {
        self.peek().span
    }

    /// Consumes the current token. It is moved out of the stream, which is
    /// safe because the parser never backtracks; the final `Eof` is never
    /// consumed, so it is cloned instead.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos >= last {
            return self.tokens[last].clone();
        }
        let span = self.tokens[self.pos].span;
        let t = std::mem::replace(
            &mut self.tokens[self.pos],
            Token {
                kind: TokenKind::Eof,
                span,
            },
        );
        self.pos += 1;
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> ParseResult<Token> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(ParseError::new(
                self.peek_span(),
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek_kind().describe()
                ),
            ))
        }
    }

    fn expect_ident(&mut self) -> ParseResult<(String, Span)> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let sp = self.bump().span;
                Ok((name, sp))
            }
            other => Err(ParseError::new(
                self.peek_span(),
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    fn fresh_name(&mut self, hint: &str) -> String {
        let n = self.fresh;
        self.fresh += 1;
        // `#` cannot appear in a lexed identifier, so this never collides
        // with a user name.
        format!("{hint}#{n}")
    }

    // ---- Declarations ------------------------------------------------

    fn datatype_decl(&mut self) -> ParseResult<DatatypeDecl> {
        let start = self.expect(TokenKind::Datatype)?.span;
        let params = self.ty_params()?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::Eq)?;
        let mut ctors = vec![self.ctor_decl()?];
        while self.eat(&TokenKind::Bar) {
            ctors.push(self.ctor_decl()?);
        }
        let end = ctors.last().map(|c| c.span).unwrap_or(start);
        Ok(DatatypeDecl {
            name,
            params,
            ctors,
            span: start.merge(end),
        })
    }

    fn ty_params(&mut self) -> ParseResult<Vec<String>> {
        match self.peek_kind().clone() {
            TokenKind::TyVar(v) => {
                self.bump();
                Ok(vec![v])
            }
            TokenKind::LParen => {
                // Could be `('a, 'b) name` — only consume if a tyvar follows.
                if let Some(Token {
                    kind: TokenKind::TyVar(_),
                    ..
                }) = self.tokens.get(self.pos + 1)
                {
                    self.bump(); // (
                    let mut params = Vec::new();
                    loop {
                        match self.peek_kind().clone() {
                            TokenKind::TyVar(v) => {
                                self.bump();
                                params.push(v);
                            }
                            other => {
                                return Err(ParseError::new(
                                    self.peek_span(),
                                    format!("expected type variable, found {}", other.describe()),
                                ))
                            }
                        }
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(params)
                } else {
                    Ok(Vec::new())
                }
            }
            _ => Ok(Vec::new()),
        }
    }

    fn ctor_decl(&mut self) -> ParseResult<CtorDecl> {
        let (name, span) = match self.peek_kind().clone() {
            TokenKind::UpperIdent(n) => {
                let sp = self.bump().span;
                (n, sp)
            }
            other => {
                return Err(ParseError::new(
                    self.peek_span(),
                    format!("expected constructor name, found {}", other.describe()),
                ))
            }
        };
        let args = if self.eat(&TokenKind::Of) {
            // `C of t1 * t2` gives a multi-argument constructor.
            let ty = self.ty()?;
            match ty {
                Ty::Tuple(ts) => ts,
                t => vec![t],
            }
        } else {
            Vec::new()
        };
        Ok(CtorDecl { name, args, span })
    }

    fn fun_decl_group(&mut self) -> ParseResult<Vec<FunBind>> {
        self.expect(TokenKind::Fun)?;
        let mut group = vec![self.fun_bind()?];
        while self.eat(&TokenKind::And) {
            group.push(self.fun_bind()?);
        }
        Ok(group)
    }

    /// Parses one (possibly clausal) function binding and desugars the
    /// clauses into a `case` over the parameter tuple.
    fn fun_bind(&mut self) -> ParseResult<FunBind> {
        let (name, name_span) = self.expect_ident()?;
        let mut clauses: Vec<(Vec<Pat>, Expr)> = Vec::new();
        loop {
            let mut pats = vec![self.atom_pattern()?];
            while self.starts_atom_pattern() {
                pats.push(self.atom_pattern()?);
            }
            // Optional result annotation `: ty` on the clause head.
            let ann = if self.eat(&TokenKind::Colon) {
                Some(self.ty()?)
            } else {
                None
            };
            self.expect(TokenKind::Eq)?;
            let mut body = self.expr()?;
            if let Some(ty) = ann {
                let sp = body.span;
                body = Expr::new(ExprKind::Ann(Box::new(body), ty), sp);
            }
            clauses.push((pats, body));
            // Another clause for the same function?
            if self.at(&TokenKind::Bar) {
                if let Some(Token {
                    kind: TokenKind::Ident(next_name),
                    ..
                }) = self.tokens.get(self.pos + 1)
                {
                    if *next_name == name {
                        self.bump(); // |
                        let _ = self.expect_ident()?;
                        continue;
                    }
                }
            }
            break;
        }
        self.desugar_clauses(name, name_span, clauses)
    }

    fn desugar_clauses(
        &mut self,
        name: String,
        span: Span,
        clauses: Vec<(Vec<Pat>, Expr)>,
    ) -> ParseResult<FunBind> {
        let arity = clauses[0].0.len();
        if clauses.iter().any(|(ps, _)| ps.len() != arity) {
            return Err(ParseError::new(
                span,
                format!("clauses of `{name}` have differing numbers of patterns"),
            ));
        }
        // Fast path: one clause, all parameters are plain variables.
        if clauses.len() == 1 {
            let all_vars = clauses[0]
                .0
                .iter()
                .all(|p| matches!(p.kind, PatKind::Var(_)));
            if all_vars {
                let (pats, body) = clauses.into_iter().next().expect("one clause");
                let params = pats
                    .into_iter()
                    .map(|p| match p.kind {
                        PatKind::Var(v) => v,
                        _ => unreachable!("checked all_vars"),
                    })
                    .collect();
                return Ok(FunBind {
                    name,
                    params,
                    body,
                    span,
                });
            }
        }
        // General case: fresh parameters, body cases over their tuple.
        let params: Vec<String> = (0..arity)
            .map(|i| self.fresh_name(&format!("arg{i}")))
            .collect();
        let scrutinee = if arity == 1 {
            Expr::new(ExprKind::Var(params[0].clone()), span)
        } else {
            Expr::new(
                ExprKind::Tuple(
                    params
                        .iter()
                        .map(|p| Expr::new(ExprKind::Var(p.clone()), span))
                        .collect(),
                ),
                span,
            )
        };
        let arms = clauses
            .into_iter()
            .map(|(pats, body)| {
                let pat = if arity == 1 {
                    pats.into_iter().next().expect("arity 1")
                } else {
                    let sp = pats
                        .iter()
                        .map(|p| p.span)
                        .reduce(Span::merge)
                        .unwrap_or(span);
                    Pat {
                        kind: PatKind::Tuple(pats),
                        span: sp,
                    }
                };
                Arm { pat, body }
            })
            .collect();
        let body = Expr::new(ExprKind::Case(Box::new(scrutinee), arms), span);
        Ok(FunBind {
            name,
            params,
            body,
            span,
        })
    }

    // ---- Types --------------------------------------------------------

    fn ty(&mut self) -> ParseResult<Ty> {
        let lhs = self.ty_prod()?;
        if self.eat(&TokenKind::Arrow) {
            let rhs = self.ty()?;
            Ok(Ty::Arrow(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn ty_prod(&mut self) -> ParseResult<Ty> {
        let first = self.ty_app()?;
        if self.at(&TokenKind::Star) {
            let mut parts = vec![first];
            while self.eat(&TokenKind::Star) {
                parts.push(self.ty_app()?);
            }
            Ok(Ty::Tuple(parts))
        } else {
            Ok(first)
        }
    }

    /// Postfix type application: `int list`, `('a, int) pair list`.
    fn ty_app(&mut self) -> ParseResult<Ty> {
        let mut ty = self.ty_atom()?;
        while let TokenKind::Ident(name) = self.peek_kind().clone() {
            self.bump();
            ty = if name == "list" {
                Ty::List(Box::new(ty))
            } else {
                Ty::Named(name, vec![ty])
            };
        }
        Ok(ty)
    }

    fn ty_atom(&mut self) -> ParseResult<Ty> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(match name.as_str() {
                    "int" => Ty::Int,
                    "bool" => Ty::Bool,
                    "unit" => Ty::Unit,
                    _ => Ty::Named(name, Vec::new()),
                })
            }
            TokenKind::TyVar(v) => {
                self.bump();
                Ok(Ty::Var(v))
            }
            TokenKind::LParen => {
                self.bump();
                let mut tys = vec![self.ty()?];
                while self.eat(&TokenKind::Comma) {
                    tys.push(self.ty()?);
                }
                self.expect(TokenKind::RParen)?;
                if tys.len() == 1 {
                    Ok(tys.into_iter().next().expect("one element"))
                } else {
                    // `(t1, t2) name` — the name must follow.
                    let (name, _) = self.expect_ident()?;
                    if name == "list" {
                        Err(ParseError::new(
                            self.peek_span(),
                            "`list` takes exactly one type argument",
                        ))
                    } else {
                        Ok(Ty::Named(name, tys))
                    }
                }
            }
            other => Err(ParseError::new(
                self.peek_span(),
                format!("expected a type, found {}", other.describe()),
            )),
        }
    }

    // ---- Patterns -----------------------------------------------------

    fn starts_atom_pattern(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::Wildcard
                | TokenKind::Ident(_)
                | TokenKind::UpperIdent(_)
                | TokenKind::Int(_)
                | TokenKind::Tilde
                | TokenKind::True
                | TokenKind::False
                | TokenKind::LParen
                | TokenKind::LBracket
        )
    }

    fn pattern(&mut self) -> ParseResult<Pat> {
        let head = self.app_pattern()?;
        if self.eat(&TokenKind::Cons) {
            let tail = self.pattern()?;
            let span = head.span.merge(tail.span);
            Ok(Pat {
                kind: PatKind::Cons(Box::new(head), Box::new(tail)),
                span,
            })
        } else {
            Ok(head)
        }
    }

    fn app_pattern(&mut self) -> ParseResult<Pat> {
        if let TokenKind::UpperIdent(name) = self.peek_kind().clone() {
            let span = self.bump().span;
            let arg = if self.starts_atom_pattern() {
                Some(Box::new(self.atom_pattern()?))
            } else {
                None
            };
            let end = arg.as_ref().map(|p| p.span).unwrap_or(span);
            return Ok(Pat {
                kind: PatKind::Ctor(name, arg),
                span: span.merge(end),
            });
        }
        self.atom_pattern()
    }

    fn atom_pattern(&mut self) -> ParseResult<Pat> {
        let span = self.peek_span();
        match self.peek_kind().clone() {
            TokenKind::Wildcard => {
                self.bump();
                Ok(Pat {
                    kind: PatKind::Wild,
                    span,
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Pat {
                    kind: PatKind::Var(name),
                    span,
                })
            }
            TokenKind::UpperIdent(name) => {
                self.bump();
                Ok(Pat {
                    kind: PatKind::Ctor(name, None),
                    span,
                })
            }
            TokenKind::Int(n) => {
                self.bump();
                Ok(Pat {
                    kind: PatKind::Int(n),
                    span,
                })
            }
            TokenKind::Tilde => {
                self.bump();
                match self.peek_kind().clone() {
                    TokenKind::Int(n) => {
                        let end = self.bump().span;
                        Ok(Pat {
                            kind: PatKind::Int(-n),
                            span: span.merge(end),
                        })
                    }
                    other => Err(ParseError::new(
                        self.peek_span(),
                        format!(
                            "expected integer after `~` in pattern, found {}",
                            other.describe()
                        ),
                    )),
                }
            }
            TokenKind::True => {
                self.bump();
                Ok(Pat {
                    kind: PatKind::Bool(true),
                    span,
                })
            }
            TokenKind::False => {
                self.bump();
                Ok(Pat {
                    kind: PatKind::Bool(false),
                    span,
                })
            }
            TokenKind::LParen => {
                self.bump();
                if self.at(&TokenKind::RParen) {
                    let end = self.bump().span;
                    return Ok(Pat {
                        kind: PatKind::Unit,
                        span: span.merge(end),
                    });
                }
                let mut pats = vec![self.pattern()?];
                while self.eat(&TokenKind::Comma) {
                    pats.push(self.pattern()?);
                }
                // Optional ascription `(p : ty)`.
                let ann = if self.eat(&TokenKind::Colon) {
                    Some(self.ty()?)
                } else {
                    None
                };
                let end = self.expect(TokenKind::RParen)?.span;
                let full = span.merge(end);
                let mut p = if pats.len() == 1 {
                    let mut p = pats.into_iter().next().expect("one element");
                    p.span = full;
                    p
                } else {
                    Pat {
                        kind: PatKind::Tuple(pats),
                        span: full,
                    }
                };
                if let Some(ty) = ann {
                    p = Pat {
                        kind: PatKind::Ascribe(Box::new(p), ty),
                        span: full,
                    };
                }
                Ok(p)
            }
            TokenKind::LBracket => {
                self.bump();
                if self.at(&TokenKind::RBracket) {
                    let end = self.bump().span;
                    return Ok(Pat {
                        kind: PatKind::Nil,
                        span: span.merge(end),
                    });
                }
                let mut pats = vec![self.pattern()?];
                while self.eat(&TokenKind::Comma) {
                    pats.push(self.pattern()?);
                }
                let end = self.expect(TokenKind::RBracket)?.span;
                // Desugar [p1, p2] into p1 :: p2 :: [].
                let mut acc = Pat {
                    kind: PatKind::Nil,
                    span: end,
                };
                for p in pats.into_iter().rev() {
                    let sp = p.span.merge(acc.span);
                    acc = Pat {
                        kind: PatKind::Cons(Box::new(p), Box::new(acc)),
                        span: sp,
                    };
                }
                acc.span = span.merge(end);
                Ok(acc)
            }
            other => Err(ParseError::new(
                span,
                format!("expected a pattern, found {}", other.describe()),
            )),
        }
    }

    // ---- Expressions --------------------------------------------------

    /// Expression entry point. Does *not* consume `;` — sequencing is only
    /// available inside parentheses (see [`Parser::seq_expr`]), so that `;`
    /// can serve as the top-level declaration separator.
    fn expr(&mut self) -> ParseResult<Expr> {
        self.ann_expr()
    }

    /// `e1; e2; ...` — used for the contents of parentheses.
    fn seq_expr(&mut self) -> ParseResult<Expr> {
        let mut acc = self.ann_expr()?;
        while self.eat(&TokenKind::Semicolon) {
            let next = self.ann_expr()?;
            let span = acc.span.merge(next.span);
            acc = Expr::new(ExprKind::Seq(Box::new(acc), Box::new(next)), span);
        }
        Ok(acc)
    }

    fn ann_expr(&mut self) -> ParseResult<Expr> {
        let e = self.or_expr()?;
        if self.eat(&TokenKind::Colon) {
            let ty = self.ty()?;
            let span = e.span;
            Ok(Expr::new(ExprKind::Ann(Box::new(e), ty), span))
        } else {
            Ok(e)
        }
    }

    /// True when the next token begins a keyword expression that extends
    /// maximally to the right.
    fn at_keyword_expr(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::If | TokenKind::Fn | TokenKind::Case | TokenKind::Let
        )
    }

    fn keyword_expr(&mut self) -> ParseResult<Expr> {
        let span = self.peek_span();
        match self.peek_kind().clone() {
            TokenKind::If => {
                self.bump();
                let c = self.expr()?;
                self.expect(TokenKind::Then)?;
                let t = self.expr()?;
                self.expect(TokenKind::Else)?;
                let f = self.expr()?;
                let end = f.span;
                Ok(Expr::new(
                    ExprKind::If(Box::new(c), Box::new(t), Box::new(f)),
                    span.merge(end),
                ))
            }
            TokenKind::Fn => {
                self.bump();
                let (param, _) = match self.peek_kind().clone() {
                    TokenKind::Ident(name) => {
                        let sp = self.bump().span;
                        (name, sp)
                    }
                    TokenKind::Wildcard => {
                        let sp = self.bump().span;
                        (self.fresh_name("ignored"), sp)
                    }
                    other => {
                        return Err(ParseError::new(
                            self.peek_span(),
                            format!(
                                "expected parameter name after `fn`, found {}",
                                other.describe()
                            ),
                        ))
                    }
                };
                self.expect(TokenKind::DArrow)?;
                let body = self.expr()?;
                let end = body.span;
                Ok(Expr::new(
                    ExprKind::Lambda(param, Box::new(body)),
                    span.merge(end),
                ))
            }
            TokenKind::Case => {
                self.bump();
                let scrut = self.expr()?;
                self.expect(TokenKind::Of)?;
                self.eat(&TokenKind::Bar); // optional leading bar
                let mut arms = Vec::new();
                loop {
                    let pat = self.pattern()?;
                    self.expect(TokenKind::DArrow)?;
                    let body = self.expr()?;
                    arms.push(Arm { pat, body });
                    if !self.eat(&TokenKind::Bar) {
                        break;
                    }
                }
                let end = arms.last().map(|a| a.body.span).unwrap_or(span);
                Ok(Expr::new(
                    ExprKind::Case(Box::new(scrut), arms),
                    span.merge(end),
                ))
            }
            TokenKind::Let => {
                self.bump();
                let mut binds = Vec::new();
                loop {
                    match self.peek_kind() {
                        TokenKind::Val => {
                            self.bump();
                            // `val rec` is accepted as a synonym for `fun`
                            // with a lambda right-hand side.
                            if self.eat(&TokenKind::Rec) {
                                let (name, name_span) = self.expect_ident()?;
                                self.expect(TokenKind::Eq)?;
                                let body = self.expr()?;
                                let (params, inner) = strip_lambdas(body);
                                if params.is_empty() {
                                    return Err(ParseError::new(
                                        name_span,
                                        "`val rec` right-hand side must be a `fn`",
                                    ));
                                }
                                binds.push(LetBind::Fun(vec![FunBind {
                                    name,
                                    params,
                                    body: inner,
                                    span: name_span,
                                }]));
                            } else {
                                let pat = self.pattern()?;
                                self.expect(TokenKind::Eq)?;
                                let rhs = self.expr()?;
                                binds.push(LetBind::Val(pat, rhs));
                            }
                        }
                        TokenKind::Fun => {
                            binds.push(LetBind::Fun(self.fun_decl_group()?));
                        }
                        _ => break,
                    }
                }
                if binds.is_empty() {
                    return Err(ParseError::new(
                        self.peek_span(),
                        "expected `val` or `fun` after `let`",
                    ));
                }
                self.expect(TokenKind::In)?;
                let body = self.expr()?;
                let end = self.expect(TokenKind::End)?.span;
                Ok(Expr::new(
                    ExprKind::Let(binds, Box::new(body)),
                    span.merge(end),
                ))
            }
            other => Err(ParseError::new(
                span,
                format!("expected expression, found {}", other.describe()),
            )),
        }
    }

    fn or_expr(&mut self) -> ParseResult<Expr> {
        if self.at_keyword_expr() {
            return self.keyword_expr();
        }
        let mut lhs = self.and_expr()?;
        while self.at(&TokenKind::Orelse) {
            self.bump();
            let rhs = if self.at_keyword_expr() {
                self.keyword_expr()?
            } else {
                self.and_expr()?
            };
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::BinOp(BinOp::Or, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> ParseResult<Expr> {
        if self.at_keyword_expr() {
            return self.keyword_expr();
        }
        let mut lhs = self.cmp_expr()?;
        while self.at(&TokenKind::Andalso) {
            self.bump();
            let rhs = if self.at_keyword_expr() {
                self.keyword_expr()?
            } else {
                self.cmp_expr()?
            };
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::BinOp(BinOp::And, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> ParseResult<Expr> {
        if self.at_keyword_expr() {
            return self.keyword_expr();
        }
        let lhs = self.cons_expr()?;
        let op = match self.peek_kind() {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::NotEq),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = if self.at_keyword_expr() {
                self.keyword_expr()?
            } else {
                self.cons_expr()?
            };
            let span = lhs.span.merge(rhs.span);
            Ok(Expr::new(
                ExprKind::BinOp(op, Box::new(lhs), Box::new(rhs)),
                span,
            ))
        } else {
            Ok(lhs)
        }
    }

    fn cons_expr(&mut self) -> ParseResult<Expr> {
        if self.at_keyword_expr() {
            return self.keyword_expr();
        }
        let head = self.add_expr()?;
        if self.eat(&TokenKind::Cons) {
            let tail = self.cons_expr()?;
            let span = head.span.merge(tail.span);
            Ok(Expr::new(
                ExprKind::Cons(Box::new(head), Box::new(tail)),
                span,
            ))
        } else {
            Ok(head)
        }
    }

    fn add_expr(&mut self) -> ParseResult<Expr> {
        if self.at_keyword_expr() {
            return self.keyword_expr();
        }
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = if self.at_keyword_expr() {
                self.keyword_expr()?
            } else {
                self.mul_expr()?
            };
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::BinOp(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> ParseResult<Expr> {
        if self.at_keyword_expr() {
            return self.keyword_expr();
        }
        let mut lhs = self.prefix_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Mod => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = if self.at_keyword_expr() {
                self.keyword_expr()?
            } else {
                self.prefix_expr()?
            };
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::BinOp(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn prefix_expr(&mut self) -> ParseResult<Expr> {
        let span = self.peek_span();
        match self.peek_kind() {
            TokenKind::Tilde => {
                self.bump();
                let inner = self.prefix_expr()?;
                let end = inner.span;
                Ok(Expr::new(
                    ExprKind::UnOp(UnOp::Neg, Box::new(inner)),
                    span.merge(end),
                ))
            }
            TokenKind::Not => {
                self.bump();
                let inner = self.prefix_expr()?;
                let end = inner.span;
                Ok(Expr::new(
                    ExprKind::UnOp(UnOp::Not, Box::new(inner)),
                    span.merge(end),
                ))
            }
            _ => self.app_expr(),
        }
    }

    fn app_expr(&mut self) -> ParseResult<Expr> {
        if self.at_keyword_expr() {
            return self.keyword_expr();
        }
        let mut f = self.atom_expr()?;
        loop {
            if self.starts_atom_expr() {
                let arg = self.atom_expr()?;
                let span = f.span.merge(arg.span);
                f = Expr::new(ExprKind::App(Box::new(f), Box::new(arg)), span);
            } else if self.at_keyword_expr() {
                let arg = self.keyword_expr()?;
                let span = f.span.merge(arg.span);
                f = Expr::new(ExprKind::App(Box::new(f), Box::new(arg)), span);
                break;
            } else {
                break;
            }
        }
        Ok(f)
    }

    fn starts_atom_expr(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::Int(_)
                | TokenKind::True
                | TokenKind::False
                | TokenKind::Ident(_)
                | TokenKind::UpperIdent(_)
                | TokenKind::LParen
                | TokenKind::LBracket
        )
    }

    fn atom_expr(&mut self) -> ParseResult<Expr> {
        let span = self.peek_span();
        match self.peek_kind().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::new(ExprKind::Int(n), span))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(true), span))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(false), span))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::new(ExprKind::Var(name), span))
            }
            TokenKind::UpperIdent(name) => {
                self.bump();
                Ok(Expr::new(ExprKind::Ctor(name), span))
            }
            TokenKind::LParen => {
                self.bump();
                if self.at(&TokenKind::RParen) {
                    let end = self.bump().span;
                    return Ok(Expr::new(ExprKind::Unit, span.merge(end)));
                }
                let mut exprs = vec![self.seq_expr()?];
                while self.eat(&TokenKind::Comma) {
                    exprs.push(self.seq_expr()?);
                }
                let end = self.expect(TokenKind::RParen)?.span;
                if exprs.len() == 1 {
                    let mut e = exprs.into_iter().next().expect("one element");
                    e.span = span.merge(end);
                    Ok(e)
                } else {
                    Ok(Expr::new(ExprKind::Tuple(exprs), span.merge(end)))
                }
            }
            TokenKind::LBracket => {
                self.bump();
                if self.at(&TokenKind::RBracket) {
                    let end = self.bump().span;
                    return Ok(Expr::new(ExprKind::List(Vec::new()), span.merge(end)));
                }
                let mut exprs = vec![self.expr()?];
                while self.eat(&TokenKind::Comma) {
                    exprs.push(self.expr()?);
                }
                let end = self.expect(TokenKind::RBracket)?.span;
                Ok(Expr::new(ExprKind::List(exprs), span.merge(end)))
            }
            other => Err(ParseError::new(
                span,
                format!("expected expression, found {}", other.describe()),
            )),
        }
    }
}

/// Splits nested lambdas `fn x => fn y => e` into (`[x, y]`, `e`).
fn strip_lambdas(e: Expr) -> (Vec<String>, Expr) {
    let mut params = Vec::new();
    let mut cur = e;
    loop {
        match cur.kind {
            ExprKind::Lambda(p, body) => {
                params.push(p);
                cur = *body;
            }
            _ => return (params, cur),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_arithmetic_with_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::BinOp(BinOp::Add, _, rhs) => match rhs.kind {
                ExprKind::BinOp(BinOp::Mul, _, _) => {}
                other => panic!("expected Mul on rhs, got {other:?}"),
            },
            other => panic!("expected Add at top, got {other:?}"),
        }
    }

    #[test]
    fn application_binds_tighter_than_plus() {
        let e = parse_expr("f x + g y").unwrap();
        match e.kind {
            ExprKind::BinOp(BinOp::Add, lhs, rhs) => {
                assert!(matches!(lhs.kind, ExprKind::App(_, _)));
                assert!(matches!(rhs.kind, ExprKind::App(_, _)));
            }
            other => panic!("expected Add, got {other:?}"),
        }
    }

    #[test]
    fn cons_is_right_associative() {
        let e = parse_expr("1 :: 2 :: []").unwrap();
        match e.kind {
            ExprKind::Cons(h, t) => {
                assert!(matches!(h.kind, ExprKind::Int(1)));
                assert!(matches!(t.kind, ExprKind::Cons(_, _)));
            }
            other => panic!("expected Cons, got {other:?}"),
        }
    }

    #[test]
    fn if_extends_right() {
        let e = parse_expr("1 + if true then 2 else 3").unwrap();
        match e.kind {
            ExprKind::BinOp(BinOp::Add, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::If(_, _, _)));
            }
            other => panic!("expected Add(If) shape, got {other:?}"),
        }
    }

    #[test]
    fn parses_lambda_and_app() {
        let e = parse_expr("(fn x => x + 1) 41").unwrap();
        assert!(matches!(e.kind, ExprKind::App(_, _)));
    }

    #[test]
    fn parses_let_val_and_fun() {
        let e = parse_expr("let val x = 1 fun f y = y + x in f 2 end").unwrap();
        match e.kind {
            ExprKind::Let(binds, _) => {
                assert_eq!(binds.len(), 2);
                assert!(matches!(binds[0], LetBind::Val(_, _)));
                assert!(matches!(binds[1], LetBind::Fun(_)));
            }
            other => panic!("expected Let, got {other:?}"),
        }
    }

    #[test]
    fn parses_case_with_list_patterns() {
        let e = parse_expr("case xs of [] => 0 | x :: rest => x").unwrap();
        match e.kind {
            ExprKind::Case(_, arms) => {
                assert_eq!(arms.len(), 2);
                assert!(matches!(arms[0].pat.kind, PatKind::Nil));
                assert!(matches!(arms[1].pat.kind, PatKind::Cons(_, _)));
            }
            other => panic!("expected Case, got {other:?}"),
        }
    }

    #[test]
    fn parses_clausal_append_like_the_paper() {
        let src =
            "fun append [] ys = ys | append (x :: xs) ys = x :: append xs ys ; append [1,2] [3]";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.decls.len(), 1);
        match &prog.decls[0] {
            Decl::Fun(group) => {
                assert_eq!(group.len(), 1);
                let f = &group[0];
                assert_eq!(f.name, "append");
                assert_eq!(f.params.len(), 2);
                // Clausal definitions desugar to a case over the tuple.
                assert!(matches!(f.body.kind, ExprKind::Case(_, _)));
            }
            other => panic!("expected Fun decl, got {other:?}"),
        }
    }

    #[test]
    fn parses_datatype_decl() {
        let src = "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree  0";
        let prog = parse_program(src).unwrap();
        match &prog.decls[0] {
            Decl::Datatype(dt) => {
                assert_eq!(dt.name, "tree");
                assert_eq!(dt.params, vec!["a".to_string()]);
                assert_eq!(dt.ctors.len(), 2);
                assert_eq!(dt.ctors[0].args.len(), 0);
                assert_eq!(dt.ctors[1].args.len(), 3);
            }
            other => panic!("expected Datatype, got {other:?}"),
        }
    }

    #[test]
    fn parses_multi_param_datatype() {
        let src = "datatype ('a, 'b) pair = P of 'a * 'b  0";
        let prog = parse_program(src).unwrap();
        match &prog.decls[0] {
            Decl::Datatype(dt) => {
                assert_eq!(dt.params.len(), 2);
                assert_eq!(dt.ctors[0].args.len(), 2);
            }
            other => panic!("expected Datatype, got {other:?}"),
        }
    }

    #[test]
    fn parses_mutual_recursion() {
        let src = "fun even n = if n = 0 then true else odd (n - 1) and odd n = if n = 0 then false else even (n - 1) ; even 10";
        let prog = parse_program(src).unwrap();
        match &prog.decls[0] {
            Decl::Fun(group) => assert_eq!(group.len(), 2),
            other => panic!("expected Fun group, got {other:?}"),
        }
    }

    #[test]
    fn parses_annotations() {
        let e = parse_expr("(xs : int list)").unwrap();
        assert!(matches!(e.kind, ExprKind::Ann(_, Ty::List(_))));
    }

    #[test]
    fn parses_seq() {
        let e = parse_expr("(print 1; print 2; 3)").unwrap();
        assert!(matches!(e.kind, ExprKind::Seq(_, _)));
    }

    #[test]
    fn parses_negative_literal_pattern() {
        let e = parse_expr("case x of ~1 => 0 | _ => 1").unwrap();
        match e.kind {
            ExprKind::Case(_, arms) => {
                assert!(matches!(arms[0].pat.kind, PatKind::Int(-1)));
            }
            other => panic!("expected Case, got {other:?}"),
        }
    }

    #[test]
    fn rejects_mismatched_clause_arity() {
        let src = "fun f x = x | f x y = x  0";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_expr("let in end").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_program("datatype = Foo 0").is_err());
    }

    #[test]
    fn comparison_is_non_associative_single_use() {
        let e = parse_expr("1 < 2").unwrap();
        assert!(matches!(e.kind, ExprKind::BinOp(BinOp::Lt, _, _)));
    }

    #[test]
    fn andalso_orelse_precedence() {
        let e = parse_expr("a orelse b andalso c").unwrap();
        match e.kind {
            ExprKind::BinOp(BinOp::Or, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::BinOp(BinOp::And, _, _)));
            }
            other => panic!("expected Or(And) shape, got {other:?}"),
        }
    }

    #[test]
    fn list_literal_expr() {
        let e = parse_expr("[1, 2, 3]").unwrap();
        match e.kind {
            ExprKind::List(es) => assert_eq!(es.len(), 3),
            other => panic!("expected List, got {other:?}"),
        }
    }

    #[test]
    fn val_rec_parses_as_fun() {
        let e = parse_expr(
            "let val rec loop = fn n => if n = 0 then 0 else loop (n - 1) in loop 3 end",
        )
        .unwrap();
        match e.kind {
            ExprKind::Let(binds, _) => assert!(matches!(binds[0], LetBind::Fun(_))),
            other => panic!("expected Let, got {other:?}"),
        }
    }
}
