//! Recursive-descent parser for the DiaSpec design language.
//!
//! The parser is resilient: on a syntax error it reports a diagnostic and
//! resynchronizes (at `;`, `}` or the next top-level keyword), so one run
//! reports every syntax problem in a specification. Parsing never panics on
//! any input.
//!
//! The concrete grammar follows the paper's Figures 5–8:
//!
//! ```text
//! spec        := item* EOF
//! item        := annotation* (device | context | controller
//!                             | structure | enumeration)
//! annotation  := '@' IDENT [ '(' key '=' value (',' key '=' value)* ')' ]
//! device      := 'device' IDENT ['extends' IDENT] '{' member* '}'
//! member      := 'attribute' IDENT 'as' type ';'
//!              | 'source' IDENT 'as' type ['indexed' 'by' IDENT 'as' type] ';'
//!              | 'action' IDENT ['(' param (',' param)* ')'] ';'
//! context     := 'context' IDENT 'as' type '{' interaction* '}'
//! interaction := 'when' 'provided' dataref clause* publish ';'
//!              | 'when' 'periodic' IDENT 'from' IDENT period clause* publish ';'
//!              | 'when' 'required' ';'
//! clause      := 'get' dataref
//!              | 'grouped' 'by' IDENT ['every' period]
//!                ['with' 'map' 'as' type 'reduce' 'as' type]
//! publish     := ('always' | 'maybe' | 'no') 'publish'
//! period      := '<' INT unit '>'
//! controller  := 'controller' IDENT '{' ('when' 'provided' IDENT
//!                ('do' IDENT 'on' IDENT)+ ';')* '}'
//! structure   := 'structure' IDENT '{' (IDENT 'as' type ';')* '}'
//! enumeration := 'enumeration' IDENT '{' IDENT (',' IDENT)* [','] '}'
//! type        := IDENT ['[' ']']
//! ```

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};

/// Parses DiaSpec source text into a [`Spec`] plus diagnostics.
///
/// Lexical and syntactic problems are both reported in the returned
/// [`Diagnostics`]; the returned [`Spec`] contains every item that parsed
/// successfully. Callers that need an all-or-nothing result should check
/// [`Diagnostics::has_errors`].
///
/// # Examples
///
/// ```
/// use diaspec_core::parser::parse;
///
/// let (spec, diags) = parse("device Cooker { source consumption as Float; action Off; }");
/// assert!(!diags.has_errors());
/// assert_eq!(spec.devices().count(), 1);
/// ```
#[must_use]
pub fn parse(source: &str) -> (Spec, Diagnostics) {
    let (tokens, mut diags) = lex(source);
    let mut parser = Parser {
        tokens,
        pos: 0,
        diags: Diagnostics::new(),
    };
    let spec = parser.spec();
    diags.append(&mut parser.diags);
    (spec, diags)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    fn bump(&mut self) -> Token {
        let tok = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek_kind(), TokenKind::Kw(k) if *k == kw)
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn error_here(&mut self, expected: &str) {
        let tok = self.peek().clone();
        self.diags.push(Diagnostic::error(
            "E0101",
            format!("expected {expected}, found {}", tok.kind.describe()),
            tok.span,
        ));
    }

    fn expect_kw(&mut self, kw: Keyword) -> bool {
        if self.eat_kw(kw) {
            true
        } else {
            self.error_here(&format!("keyword `{kw}`"));
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> bool {
        if self.eat(kind) {
            true
        } else {
            self.error_here(what);
            false
        }
    }

    fn expect_ident(&mut self, what: &str) -> Option<Ident> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let span = self.bump().span;
                Some(Ident::new(name, span))
            }
            _ => {
                self.error_here(what);
                None
            }
        }
    }

    /// Skips tokens until the next statement boundary inside a block:
    /// just past a `;`, or stopping before `}` / EOF.
    fn recover_in_block(&mut self) {
        loop {
            match self.peek_kind() {
                TokenKind::Semi => {
                    self.bump();
                    return;
                }
                TokenKind::RBrace | TokenKind::Eof => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skips tokens until the next top-level declaration keyword or EOF.
    fn recover_top_level(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek_kind() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    self.bump();
                    if depth <= 1 {
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Kw(
                    Keyword::Device
                    | Keyword::Context
                    | Keyword::Controller
                    | Keyword::Structure
                    | Keyword::Enumeration,
                ) if depth == 0 => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn spec(&mut self) -> Spec {
        let mut items = Vec::new();
        while !self.at_eof() {
            let annotations = self.annotations();
            let start = self.peek().span;
            let item = match self.peek_kind() {
                TokenKind::Kw(Keyword::Device) => self.device(annotations).map(Item::Device),
                TokenKind::Kw(Keyword::Context) => self.context(annotations).map(Item::Context),
                TokenKind::Kw(Keyword::Controller) => {
                    self.controller(annotations).map(Item::Controller)
                }
                TokenKind::Kw(Keyword::Structure) => {
                    self.reject_annotations(&annotations, "structure");
                    self.structure().map(Item::Structure)
                }
                TokenKind::Kw(Keyword::Enumeration) => {
                    self.reject_annotations(&annotations, "enumeration");
                    self.enumeration().map(Item::Enumeration)
                }
                _ => {
                    self.error_here(
                        "a declaration (`device`, `context`, `controller`, `structure`, or `enumeration`)",
                    );
                    self.recover_top_level();
                    continue;
                }
            };
            match item {
                Some(item) => items.push(item),
                None => {
                    // The declaration parser already reported; make sure we
                    // make progress even if it bailed out early.
                    if self.peek().span == start && !self.at_eof() {
                        self.recover_top_level();
                    }
                }
            }
        }
        Spec { items }
    }

    fn reject_annotations(&mut self, annotations: &[Annotation], kind: &str) {
        for ann in annotations {
            self.diags.push(Diagnostic::error(
                "E0102",
                format!("annotations are not allowed on {kind} declarations"),
                ann.span,
            ));
        }
    }

    fn annotations(&mut self) -> Vec<Annotation> {
        let mut out = Vec::new();
        while self.peek_kind() == &TokenKind::At {
            let at_span = self.bump().span;
            let Some(name) = self.expect_ident("an annotation name") else {
                self.recover_in_block();
                continue;
            };
            let mut args = Vec::new();
            let mut end = name.span;
            if self.eat(&TokenKind::LParen) {
                loop {
                    if self.eat(&TokenKind::RParen) {
                        break;
                    }
                    let Some(key) = self.expect_ident("an annotation argument name") else {
                        self.recover_in_block();
                        break;
                    };
                    if !self.expect(&TokenKind::Eq, "`=`") {
                        self.recover_in_block();
                        break;
                    }
                    let value = match self.peek_kind().clone() {
                        TokenKind::Str(s) => {
                            self.bump();
                            AnnotationValue::Str(s)
                        }
                        TokenKind::Int(v) => {
                            self.bump();
                            AnnotationValue::Int(v)
                        }
                        TokenKind::Ident(name) => {
                            self.bump();
                            AnnotationValue::Ident(name)
                        }
                        _ => {
                            self.error_here("an annotation value (string, integer, or identifier)");
                            self.recover_in_block();
                            break;
                        }
                    };
                    args.push((key, value));
                    if self.eat(&TokenKind::RParen) {
                        break;
                    }
                    if !self.expect(&TokenKind::Comma, "`,` or `)`") {
                        break;
                    }
                }
                end = Span::new(end.start, self.tokens[self.pos.saturating_sub(1)].span.end);
            }
            out.push(Annotation {
                span: at_span.to(end),
                name,
                args,
            });
        }
        out
    }

    fn type_ref(&mut self) -> Option<TypeRef> {
        let name = self.expect_ident("a type name")?;
        let mut ty = TypeRef::Named(name);
        while self.peek_kind() == &TokenKind::LBracket {
            let l = self.bump().span;
            if !self.expect(&TokenKind::RBracket, "`]`") {
                return Some(ty);
            }
            let r = self.tokens[self.pos - 1].span;
            ty = TypeRef::Array(Box::new(ty), l.to(r));
        }
        Some(ty)
    }

    fn period(&mut self) -> Option<Duration> {
        let start = self.peek().span;
        if !self.expect(&TokenKind::Lt, "`<` starting a period, e.g. `<10 min>`") {
            return None;
        }
        let value = match *self.peek_kind() {
            TokenKind::Int(v) => {
                self.bump();
                v
            }
            _ => {
                self.error_here("an integer period value");
                return None;
            }
        };
        let unit_tok = self.peek().clone();
        let unit = match &unit_tok.kind {
            TokenKind::Ident(u) => match TimeUnit::from_str(u) {
                Some(unit) => {
                    self.bump();
                    unit
                }
                None => {
                    self.diags.push(Diagnostic::error(
                        "E0103",
                        format!("unknown time unit `{u}` (expected ms, sec, min, hr, or day)"),
                        unit_tok.span,
                    ));
                    self.bump();
                    TimeUnit::Seconds
                }
            },
            _ => {
                self.error_here("a time unit (ms, sec, min, hr, day)");
                return None;
            }
        };
        if !self.expect(&TokenKind::Gt, "`>` closing the period") {
            return None;
        }
        let end = self.tokens[self.pos - 1].span;
        Some(Duration::new(value, unit, start.to(end)))
    }

    // ---- device ----------------------------------------------------------

    fn device(&mut self, annotations: Vec<Annotation>) -> Option<DeviceDecl> {
        let start = self.peek().span;
        self.expect_kw(Keyword::Device);
        let name = self.expect_ident("a device name")?;
        let extends = if self.eat_kw(Keyword::Extends) {
            self.expect_ident("a parent device name")
        } else {
            None
        };
        if !self.expect(&TokenKind::LBrace, "`{`") {
            self.recover_top_level();
            return None;
        }
        let mut device = DeviceDecl {
            name,
            extends,
            annotations,
            attributes: Vec::new(),
            sources: Vec::new(),
            actions: Vec::new(),
            span: start,
        };
        loop {
            match self.peek_kind() {
                TokenKind::RBrace => {
                    let end = self.bump().span;
                    device.span = start.to(end);
                    return Some(device);
                }
                TokenKind::Eof => {
                    self.error_here("`}` closing the device");
                    device.span = start.to(self.peek().span);
                    return Some(device);
                }
                TokenKind::Kw(Keyword::Attribute) => {
                    if let Some(a) = self.attribute_decl() {
                        device.attributes.push(a);
                    }
                }
                TokenKind::Kw(Keyword::Source) => {
                    if let Some(s) = self.source_decl() {
                        device.sources.push(s);
                    }
                }
                TokenKind::Kw(Keyword::Action) => {
                    if let Some(a) = self.action_decl() {
                        device.actions.push(a);
                    }
                }
                _ => {
                    self.error_here("`attribute`, `source`, `action`, or `}`");
                    self.recover_in_block();
                }
            }
        }
    }

    fn attribute_decl(&mut self) -> Option<AttributeDecl> {
        let start = self.bump().span; // `attribute`
        let name = self.expect_ident("an attribute name").or_else(|| {
            self.recover_in_block();
            None
        })?;
        if !self.expect_kw(Keyword::As) {
            self.recover_in_block();
            return None;
        }
        let ty = self.type_ref().or_else(|| {
            self.recover_in_block();
            None
        })?;
        self.expect(&TokenKind::Semi, "`;`");
        let end = self.tokens[self.pos - 1].span;
        Some(AttributeDecl {
            name,
            ty,
            span: start.to(end),
        })
    }

    fn source_decl(&mut self) -> Option<SourceDecl> {
        let start = self.bump().span; // `source`
        let name = self.expect_ident("a source name").or_else(|| {
            self.recover_in_block();
            None
        })?;
        if !self.expect_kw(Keyword::As) {
            self.recover_in_block();
            return None;
        }
        let ty = self.type_ref().or_else(|| {
            self.recover_in_block();
            None
        })?;
        let index = if self.eat_kw(Keyword::Indexed) {
            if !self.expect_kw(Keyword::By) {
                self.recover_in_block();
                return None;
            }
            let idx_name = self.expect_ident("an index name").or_else(|| {
                self.recover_in_block();
                None
            })?;
            if !self.expect_kw(Keyword::As) {
                self.recover_in_block();
                return None;
            }
            let idx_ty = self.type_ref().or_else(|| {
                self.recover_in_block();
                None
            })?;
            Some((idx_name, idx_ty))
        } else {
            None
        };
        self.expect(&TokenKind::Semi, "`;`");
        let end = self.tokens[self.pos - 1].span;
        Some(SourceDecl {
            name,
            ty,
            index,
            span: start.to(end),
        })
    }

    fn action_decl(&mut self) -> Option<ActionDecl> {
        let start = self.bump().span; // `action`
        let name = self.expect_ident("an action name").or_else(|| {
            self.recover_in_block();
            None
        })?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                let Some(pname) = self.expect_ident("a parameter name") else {
                    self.recover_in_block();
                    return None;
                };
                if !self.expect_kw(Keyword::As) {
                    self.recover_in_block();
                    return None;
                }
                let Some(pty) = self.type_ref() else {
                    self.recover_in_block();
                    return None;
                };
                params.push(Param {
                    name: pname,
                    ty: pty,
                });
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                if !self.expect(&TokenKind::Comma, "`,` or `)`") {
                    self.recover_in_block();
                    return None;
                }
            }
        }
        self.expect(&TokenKind::Semi, "`;`");
        let end = self.tokens[self.pos - 1].span;
        Some(ActionDecl {
            name,
            params,
            span: start.to(end),
        })
    }

    // ---- context ---------------------------------------------------------

    fn context(&mut self, annotations: Vec<Annotation>) -> Option<ContextDecl> {
        let start = self.peek().span;
        self.expect_kw(Keyword::Context);
        let name = self.expect_ident("a context name")?;
        if !self.expect_kw(Keyword::As) {
            self.recover_top_level();
            return None;
        }
        let output = self.type_ref().or_else(|| {
            self.recover_top_level();
            None
        })?;
        if !self.expect(&TokenKind::LBrace, "`{`") {
            self.recover_top_level();
            return None;
        }
        let mut ctx = ContextDecl {
            name,
            output,
            annotations,
            interactions: Vec::new(),
            span: start,
        };
        loop {
            match self.peek_kind() {
                TokenKind::RBrace => {
                    let end = self.bump().span;
                    ctx.span = start.to(end);
                    return Some(ctx);
                }
                TokenKind::Eof => {
                    self.error_here("`}` closing the context");
                    ctx.span = start.to(self.peek().span);
                    return Some(ctx);
                }
                TokenKind::Kw(Keyword::When) => {
                    if let Some(i) = self.interaction() {
                        ctx.interactions.push(i);
                    }
                }
                _ => {
                    self.error_here("`when` or `}`");
                    self.recover_in_block();
                }
            }
        }
    }

    fn data_ref(&mut self) -> Option<DataRef> {
        let first = self.expect_ident("a source or context name")?;
        if self.eat_kw(Keyword::From) {
            let device = self.expect_ident("a device name")?;
            Some(DataRef::DeviceSource {
                source: first,
                device,
            })
        } else {
            Some(DataRef::Context(first))
        }
    }

    /// Parses the shared tail of an interaction: `get`/`grouped by` clauses
    /// followed by the publish mode. Returns `(gets, grouping, publish)`.
    fn interaction_tail(&mut self) -> Option<(Vec<DataRef>, Option<Grouping>, Publish)> {
        let mut gets = Vec::new();
        let mut grouping: Option<Grouping> = None;
        loop {
            if self.at_kw(Keyword::Get) {
                self.bump();
                let Some(r) = self.data_ref() else {
                    self.recover_in_block();
                    return None;
                };
                gets.push(r);
            } else if self.at_kw(Keyword::Grouped) {
                let gstart = self.bump().span;
                if !self.expect_kw(Keyword::By) {
                    self.recover_in_block();
                    return None;
                }
                let Some(attribute) = self.expect_ident("an attribute name to group by") else {
                    self.recover_in_block();
                    return None;
                };
                let window = if self.eat_kw(Keyword::Every) {
                    Some(self.period().or_else(|| {
                        self.recover_in_block();
                        None
                    })?)
                } else {
                    None
                };
                let map_reduce = if self.eat_kw(Keyword::With) {
                    if !self.expect_kw(Keyword::Map) {
                        self.recover_in_block();
                        return None;
                    }
                    if !self.expect_kw(Keyword::As) {
                        self.recover_in_block();
                        return None;
                    }
                    let mstart = self.peek().span;
                    let Some(map_ty) = self.type_ref() else {
                        self.recover_in_block();
                        return None;
                    };
                    if !self.expect_kw(Keyword::Reduce) {
                        self.recover_in_block();
                        return None;
                    }
                    if !self.expect_kw(Keyword::As) {
                        self.recover_in_block();
                        return None;
                    }
                    let Some(reduce_ty) = self.type_ref() else {
                        self.recover_in_block();
                        return None;
                    };
                    let span = mstart.to(reduce_ty.span());
                    Some(MapReduceSig {
                        map_ty,
                        reduce_ty,
                        span,
                    })
                } else {
                    None
                };
                let gend = self.tokens[self.pos - 1].span;
                let clause = Grouping {
                    attribute,
                    window,
                    map_reduce,
                    span: gstart.to(gend),
                };
                if grouping.is_some() {
                    self.diags.push(Diagnostic::error(
                        "E0104",
                        "an interaction may have at most one `grouped by` clause",
                        clause.span,
                    ));
                } else {
                    grouping = Some(clause);
                }
            } else {
                break;
            }
        }
        let publish = if self.eat_kw(Keyword::Always) {
            Publish::Always
        } else if self.eat_kw(Keyword::Maybe) {
            Publish::Maybe
        } else if self.eat_kw(Keyword::No) {
            Publish::No
        } else {
            self.error_here("`always publish`, `maybe publish`, or `no publish`");
            self.recover_in_block();
            return None;
        };
        if !self.expect_kw(Keyword::Publish) {
            self.recover_in_block();
            return None;
        }
        self.expect(&TokenKind::Semi, "`;`");
        Some((gets, grouping, publish))
    }

    fn interaction(&mut self) -> Option<Interaction> {
        let start = self.bump().span; // `when`
        if self.eat_kw(Keyword::Required) {
            self.expect(&TokenKind::Semi, "`;`");
            let end = self.tokens[self.pos - 1].span;
            return Some(Interaction::Required {
                span: start.to(end),
            });
        }
        if self.eat_kw(Keyword::Provided) {
            let trigger = self.data_ref().or_else(|| {
                self.recover_in_block();
                None
            })?;
            let (gets, grouping, publish) = self.interaction_tail()?;
            let end = self.tokens[self.pos - 1].span;
            return Some(Interaction::Provided {
                trigger,
                gets,
                grouping,
                publish,
                span: start.to(end),
            });
        }
        if self.eat_kw(Keyword::Periodic) {
            let source = self.expect_ident("a source name").or_else(|| {
                self.recover_in_block();
                None
            })?;
            if !self.expect_kw(Keyword::From) {
                self.recover_in_block();
                return None;
            }
            let device = self.expect_ident("a device name").or_else(|| {
                self.recover_in_block();
                None
            })?;
            let period = self.period().or_else(|| {
                self.recover_in_block();
                None
            })?;
            let (gets, grouping, publish) = self.interaction_tail()?;
            let end = self.tokens[self.pos - 1].span;
            return Some(Interaction::Periodic {
                source,
                device,
                period,
                gets,
                grouping,
                publish,
                span: start.to(end),
            });
        }
        self.error_here("`provided`, `periodic`, or `required` after `when`");
        self.recover_in_block();
        None
    }

    // ---- controller ------------------------------------------------------

    fn controller(&mut self, annotations: Vec<Annotation>) -> Option<ControllerDecl> {
        let start = self.peek().span;
        self.expect_kw(Keyword::Controller);
        let name = self.expect_ident("a controller name")?;
        if !self.expect(&TokenKind::LBrace, "`{`") {
            self.recover_top_level();
            return None;
        }
        let mut ctrl = ControllerDecl {
            name,
            annotations,
            interactions: Vec::new(),
            span: start,
        };
        loop {
            match self.peek_kind() {
                TokenKind::RBrace => {
                    let end = self.bump().span;
                    ctrl.span = start.to(end);
                    return Some(ctrl);
                }
                TokenKind::Eof => {
                    self.error_here("`}` closing the controller");
                    ctrl.span = start.to(self.peek().span);
                    return Some(ctrl);
                }
                TokenKind::Kw(Keyword::When) => {
                    if let Some(i) = self.controller_interaction() {
                        ctrl.interactions.push(i);
                    }
                }
                _ => {
                    self.error_here("`when` or `}`");
                    self.recover_in_block();
                }
            }
        }
    }

    fn controller_interaction(&mut self) -> Option<ControllerInteraction> {
        let start = self.bump().span; // `when`
        if !self.expect_kw(Keyword::Provided) {
            self.recover_in_block();
            return None;
        }
        let context = self.expect_ident("a context name").or_else(|| {
            self.recover_in_block();
            None
        })?;
        let mut actions = Vec::new();
        while self.at_kw(Keyword::Do) {
            let dstart = self.bump().span;
            let Some(action) = self.expect_ident("an action name") else {
                self.recover_in_block();
                return None;
            };
            if !self.expect_kw(Keyword::On) {
                self.recover_in_block();
                return None;
            }
            let Some(device) = self.expect_ident("a device name") else {
                self.recover_in_block();
                return None;
            };
            let dend = device.span;
            actions.push(DoAction {
                action,
                device,
                span: dstart.to(dend),
            });
        }
        if actions.is_empty() {
            self.error_here("at least one `do <action> on <device>` clause");
            self.recover_in_block();
            return None;
        }
        self.expect(&TokenKind::Semi, "`;`");
        let end = self.tokens[self.pos - 1].span;
        Some(ControllerInteraction {
            context,
            actions,
            span: start.to(end),
        })
    }

    // ---- structure / enumeration ------------------------------------------

    fn structure(&mut self) -> Option<StructDecl> {
        let start = self.bump().span; // `structure`
        let name = self.expect_ident("a structure name")?;
        if !self.expect(&TokenKind::LBrace, "`{`") {
            self.recover_top_level();
            return None;
        }
        let mut fields = Vec::new();
        loop {
            match self.peek_kind().clone() {
                TokenKind::RBrace => {
                    let end = self.bump().span;
                    return Some(StructDecl {
                        name,
                        fields,
                        span: start.to(end),
                    });
                }
                TokenKind::Eof => {
                    self.error_here("`}` closing the structure");
                    return Some(StructDecl {
                        name,
                        fields,
                        span: start.to(self.peek().span),
                    });
                }
                TokenKind::Ident(fname) => {
                    let fspan = self.bump().span;
                    if !self.expect_kw(Keyword::As) {
                        self.recover_in_block();
                        continue;
                    }
                    let Some(ty) = self.type_ref() else {
                        self.recover_in_block();
                        continue;
                    };
                    self.expect(&TokenKind::Semi, "`;`");
                    let end = self.tokens[self.pos - 1].span;
                    fields.push(FieldDecl {
                        name: Ident::new(fname, fspan),
                        ty,
                        span: fspan.to(end),
                    });
                }
                _ => {
                    self.error_here("a field name or `}`");
                    self.recover_in_block();
                }
            }
        }
    }

    fn enumeration(&mut self) -> Option<EnumDecl> {
        let start = self.bump().span; // `enumeration`
        let name = self.expect_ident("an enumeration name")?;
        if !self.expect(&TokenKind::LBrace, "`{`") {
            self.recover_top_level();
            return None;
        }
        let mut variants = Vec::new();
        loop {
            match self.peek_kind().clone() {
                TokenKind::RBrace => {
                    let end = self.bump().span;
                    return Some(EnumDecl {
                        name,
                        variants,
                        span: start.to(end),
                    });
                }
                TokenKind::Eof => {
                    self.error_here("`}` closing the enumeration");
                    return Some(EnumDecl {
                        name,
                        variants,
                        span: start.to(self.peek().span),
                    });
                }
                TokenKind::Ident(vname) => {
                    let vspan = self.bump().span;
                    variants.push(Ident::new(vname, vspan));
                    if !self.eat(&TokenKind::Comma)
                        && !matches!(self.peek_kind(), TokenKind::RBrace)
                    {
                        self.error_here("`,` or `}`");
                        self.recover_in_block();
                    }
                }
                _ => {
                    self.error_here("a variant name or `}`");
                    self.recover_in_block();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Spec {
        let (spec, diags) = parse(src);
        assert!(
            !diags.has_errors(),
            "unexpected errors:\n{}",
            diags.render(&crate::span::MultiSourceMap::new([("", src)]), false)
        );
        spec
    }

    #[test]
    fn parses_figure5_cooker_devices() {
        let spec = parse_ok(
            r#"
            device Clock {
              source tickSecond as Integer;
              source tickMinute as Integer;
              source tickHour as Integer;
            }
            device Cooker {
              source consumption as Float;
              action On;
              action Off;
            }
            device Prompter {
              source answer as String indexed by questionId as String;
              action askQuestion;
            }
            "#,
        );
        assert_eq!(spec.devices().count(), 3);
        let clock = spec.devices().next().unwrap();
        assert_eq!(clock.sources.len(), 3);
        let prompter = spec.devices().nth(2).unwrap();
        let answer = &prompter.sources[0];
        assert!(answer.index.is_some());
        assert_eq!(answer.index.as_ref().unwrap().0.as_str(), "questionId");
    }

    #[test]
    fn parses_figure6_parking_devices_with_inheritance() {
        let spec = parse_ok(
            r#"
            device PresenceSensor {
              attribute parkingLot as ParkingLotEnum;
              source presence as Boolean;
            }
            device DisplayPanel {
              action update(status as String);
            }
            device ParkingEntrancePanel extends DisplayPanel {
              attribute location as ParkingLotEnum;
            }
            device CityEntrancePanel extends DisplayPanel {
              attribute location as CityEntranceEnum;
            }
            device Messenger {
              action sendMessage(message as String);
            }
            enumeration ParkingLotEnum { A22, B16, D6 }
            enumeration CityEntranceEnum { NORTH_EAST_14Y, SOUTH_EAST_1A }
            "#,
        );
        assert_eq!(spec.devices().count(), 5);
        assert_eq!(spec.enumerations().count(), 2);
        let pep = spec.devices().nth(2).unwrap();
        assert_eq!(pep.extends.as_ref().unwrap().as_str(), "DisplayPanel");
        let panel = spec.devices().nth(1).unwrap();
        assert_eq!(panel.actions[0].params.len(), 1);
    }

    #[test]
    fn parses_figure7_cooker_design() {
        let spec = parse_ok(
            r#"
            context Alert as Integer {
              when provided tickSecond from Clock
                get consumption from Cooker
                maybe publish;
            }
            controller Notify {
              when provided Alert
                do askQuestion on TvPrompter;
            }
            context RemoteTurnOff as Boolean {
              when provided answer from TvPrompter
                get consumption from Cooker
                maybe publish;
            }
            controller TurnOff {
              when provided RemoteTurnOff
                do Off on Cooker;
            }
            "#,
        );
        assert_eq!(spec.contexts().count(), 2);
        assert_eq!(spec.controllers().count(), 2);
        let alert = spec.contexts().next().unwrap();
        match &alert.interactions[0] {
            Interaction::Provided {
                trigger,
                gets,
                publish,
                ..
            } => {
                assert_eq!(trigger.to_string(), "tickSecond from Clock");
                assert_eq!(gets.len(), 1);
                assert_eq!(*publish, Publish::Maybe);
            }
            other => panic!("expected provided interaction, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure8_parking_design() {
        let spec = parse_ok(
            r#"
            context ParkingAvailability as Availability[] {
              when periodic presence from PresenceSensor <10 min>
                grouped by parkingLot
                with map as Boolean reduce as Integer
                always publish;
            }
            context ParkingUsagePattern as UsagePattern[] {
              when periodic presence from PresenceSensor <1 hr>
                grouped by parkingLot
                no publish;
              when required;
            }
            context AverageOccupancy as ParkingOccupancy[] {
              when periodic presence from PresenceSensor <10 min>
                grouped by parkingLot every <24 hr>
                always publish;
            }
            context ParkingSuggestion as ParkingLotEnum[] {
              when provided ParkingAvailability
                get ParkingUsagePattern
                always publish;
            }
            controller ParkingEntrancePanelController {
              when provided ParkingAvailability
                do update on ParkingEntrancePanel;
            }
            structure Availability {
              parkingLot as ParkingLotEnum;
              count as Integer;
            }
            enumeration UsagePatternEnum { HIGH, MODERATE, LOW }
            "#,
        );
        assert_eq!(spec.contexts().count(), 4);
        let avail = spec.contexts().next().unwrap();
        assert_eq!(avail.output.to_string(), "Availability[]");
        match &avail.interactions[0] {
            Interaction::Periodic {
                period, grouping, ..
            } => {
                assert_eq!(period.as_millis(), 600_000);
                let g = grouping.as_ref().unwrap();
                assert_eq!(g.attribute.as_str(), "parkingLot");
                let mr = g.map_reduce.as_ref().unwrap();
                assert_eq!(mr.map_ty.to_string(), "Boolean");
                assert_eq!(mr.reduce_ty.to_string(), "Integer");
            }
            other => panic!("expected periodic interaction, got {other:?}"),
        }
        let usage = spec.contexts().nth(1).unwrap();
        assert!(usage.is_required());
        assert!(!usage.publishes());
        let occupancy = spec.contexts().nth(2).unwrap();
        match &occupancy.interactions[0] {
            Interaction::Periodic { grouping, .. } => {
                let w = grouping.as_ref().unwrap().window.unwrap();
                assert_eq!(w.as_millis(), 86_400_000);
            }
            other => panic!("expected periodic interaction, got {other:?}"),
        }
    }

    #[test]
    fn parses_annotations_on_devices_and_contexts() {
        let spec = parse_ok(
            r#"
            @error(policy = "retry", attempts = 3)
            @qos(latencyMs = 50)
            device Altimeter {
              source altitude as Float;
            }
            @error(policy = "failover")
            context FlightState as Float {
              when provided altitude from Altimeter always publish;
            }
            "#,
        );
        let dev = spec.devices().next().unwrap();
        assert_eq!(dev.annotations.len(), 2);
        assert_eq!(dev.annotations[0].name.as_str(), "error");
        assert_eq!(
            dev.annotations[0].arg("attempts"),
            Some(&AnnotationValue::Int(3))
        );
        let ctx = spec.contexts().next().unwrap();
        assert_eq!(ctx.annotations.len(), 1);
    }

    #[test]
    fn controller_with_multiple_do_clauses() {
        let spec = parse_ok(
            r#"
            controller Evacuate {
              when provided FireAlarm
                do unlock on DoorLock
                do flash on Light;
            }
            "#,
        );
        let ctrl = spec.controllers().next().unwrap();
        assert_eq!(ctrl.interactions[0].actions.len(), 2);
    }

    #[test]
    fn enumeration_allows_trailing_comma() {
        let spec = parse_ok("enumeration E { A, B, C, }");
        assert_eq!(spec.enumerations().next().unwrap().variants.len(), 3);
    }

    #[test]
    fn nested_array_types_parse() {
        let spec = parse_ok("context C as Integer[][] { when provided X always publish; }");
        let ctx = spec.contexts().next().unwrap();
        assert_eq!(ctx.output.to_string(), "Integer[][]");
        assert_eq!(ctx.output.base_name(), "Integer");
    }

    #[test]
    fn error_missing_publish_reports_and_recovers() {
        let (spec, diags) = parse(
            r#"
            context Bad as Integer {
              when provided tick from Clock;
            }
            device Good { source x as Integer; }
            "#,
        );
        assert!(diags.has_errors());
        // The later device still parses.
        assert_eq!(spec.devices().count(), 1);
    }

    #[test]
    fn error_duplicate_grouped_by_reported() {
        let (_, diags) = parse(
            r#"
            context C as Integer[] {
              when periodic p from S <1 min>
                grouped by a
                grouped by b
                always publish;
            }
            "#,
        );
        assert!(diags.find("E0104").is_some(), "{diags:?}");
    }

    #[test]
    fn error_unknown_time_unit() {
        let (_, diags) =
            parse("context C as Integer { when periodic p from S <3 weeks> always publish; }");
        assert!(diags.find("E0103").is_some());
    }

    #[test]
    fn error_annotation_on_structure() {
        let (_, diags) = parse("@qos(x = 1) structure S { f as Integer; }");
        assert!(diags.find("E0102").is_some());
    }

    #[test]
    fn error_garbage_between_items_recovers() {
        let (spec, diags) = parse("????? device D { } ;;; context C as Integer { when required; }");
        assert!(diags.has_errors());
        assert_eq!(spec.devices().count(), 1);
        assert_eq!(spec.contexts().count(), 1);
    }

    #[test]
    fn error_unclosed_device_at_eof() {
        let (spec, diags) = parse("device D { source x as Integer;");
        assert!(diags.has_errors());
        assert_eq!(spec.devices().count(), 1);
        assert_eq!(spec.devices().next().unwrap().sources.len(), 1);
    }

    #[test]
    fn controller_requires_do_clause() {
        let (_, diags) = parse("controller C { when provided X; }");
        assert!(diags.has_errors());
    }

    #[test]
    fn empty_input_is_valid() {
        let (spec, diags) = parse("");
        assert!(diags.is_empty());
        assert!(spec.items.is_empty());
    }

    #[test]
    fn parser_never_loops_on_pathological_input() {
        // A selection of degenerate inputs; the parser must terminate on all.
        for src in [
            "{",
            "}",
            ";",
            "@",
            "@@@@",
            "device",
            "context",
            "controller",
            "when when when",
            "device {",
            "context C as {",
            "controller C { when }",
            "enumeration E {",
            "structure S { x",
            "<<<<>>>>",
            "device D extends {",
            "@e( device D {}",
        ] {
            let _ = parse(src);
        }
    }
}
