"""Embedded canonical tag table.

One row per tag, tab separated, in registry order.  Column layout is
defined by ``_core._COLUMNS``; ``-`` marks an attribute left at its
default value.  The registry loader validates the whole table on first
use.  Do not edit rows by hand without re-running the registry tests.
"""

TABLE = """\
TAG	CATEGORY	SUBCATEGORY	GENDER	NUMBER	PERSON	DEGREE	VERBCLASS	TENSE	MOOD	DEIXIS	DIRECTIONALITY	POLARITY	PRONFN	ANIMACY	CASE	POLITENESS	EXISTENTIAL	POSSPOS	DESCRIPTION	EXAMPLES	NOTES
IQUEST	punctuation	question-mark-inverted	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - question mark (inverted)	-	-
IEXCL	punctuation	exclamation-mark-inverted	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - exclamation mark (inverted)	-	-
!	punctuation	exclamation-mark	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - exclamation mark	-	-
"	punctuation	quotes	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - quotes	-	-
(	punctuation	left-bracket	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - left bracket	-	-
)	punctuation	right-bracket	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - right bracket	-	-
,	punctuation	comma	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - comma	-	-
-	punctuation	dash	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - dash	-	-
.	punctuation	full-stop	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - full-stop	-	-
...	punctuation	ellipsis	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - ellipsis	-	-
:	punctuation	colon	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - colon	-	-
;	punctuation	semicolon	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - semicolon	-	-
?	punctuation	question-mark	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Punctuation tag - question mark	-	-
ADJCP	adjective	-	-	plural	-	comparative	-	-	-	-	-	-	-	-	-	-	-	-	Plural general comparative adjective	mayores,menores	-
ADJCS	adjective	-	-	singular	-	comparative	-	-	-	-	-	-	-	-	-	-	-	-	Singular general comparative adjective	mayor,menor	-
ADJGFP	adjective	-	feminine	plural	-	positive	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural general positive adjective	-	-
ADJGFS	adjective	-	feminine	singular	-	positive	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular general positive adjective	-	-
ADJGMP	adjective	-	masculine	plural	-	positive	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural general positive adjective	-	-
ADJGMS	adjective	-	masculine	singular	-	positive	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular general positive adjective	-	-
ADJSFP	adjective	-	feminine	plural	-	superlative	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural general superlative adjective	máximas,mínimas	-
ADJSFS	adjective	-	feminine	singular	-	superlative	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular general superlative adjective	máxima,mínima	-
ADJSMP	adjective	-	masculine	plural	-	superlative	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural general superlative adjective	máximos,mínimos	-
ADJSMS	adjective	-	masculine	singular	-	superlative	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular general superlative adjective	máximo,mínimo,grandísimo	-
ADVGR	adverb	degree	-	-	-	positive	-	-	-	-	-	-	-	-	-	-	-	-	Positive degree adverb	muy,demasiado,mucho	could also be read as a bare degree-adverb subclass; positive degree recorded
ADVGRC	adverb	degree	-	-	-	comparative	-	-	-	-	-	-	-	-	-	-	-	-	Comparative degree adverb	más,menos	-
ADVGRS	adverb	degree	-	-	-	superlative	-	-	-	-	-	-	-	-	-	-	-	-	Superlative degree adverb	abundantísimamente	-
ADVINT	adverb	interrogative	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Interrogative adverb	cómo	-
ADVL	adverb	locative	-	-	-	-	-	-	-	-	underspecified	-	-	-	-	-	-	-	Locative adverb underspecified for directionality	abajo	-
ADVLD	adverb	locative	-	-	-	-	-	-	-	-	dynamic	-	-	-	-	-	-	-	Dynamic locative adverb	adelante	-
ADVLE	adverb	locative	-	-	-	-	-	-	-	-	static	-	-	-	-	-	-	-	Static locative adverb	dentro	-
ADVLIN	adverb	locative-interrogative	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Interrogative locative adverb	dónde	-
ADVLP	adverb	locative	-	-	-	-	-	-	-	proximal	-	-	-	-	-	-	-	-	Locative adverb with proximal deixis	aquí	-
ADVLR	adverb	locative	-	-	-	-	-	-	-	remote	-	-	-	-	-	-	-	-	Locative adverb with remote deixis	allí	-
ADVLRD	adverb	locative-relative	-	-	-	-	-	-	-	-	dynamic	-	-	-	-	-	-	-	Relative dynamic locative adverb	adonde	-
ADVLRE	adverb	locative-relative	-	-	-	-	-	-	-	-	underspecified	-	-	-	-	-	-	-	Relative locative adverb underspecified for directionality	donde	-
ADVN	adverb	general	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	General adverb	salvajemente,bien,probablemente	-
ADVNEG	adverb	general	-	-	-	-	-	-	-	-	-	negative	-	-	-	-	-	-	General negative adverb	tampoco	-
ADVMRE	adverb	modal-relative	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Relative modal adverb	como	-
ADVT	adverb	temporal	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Temporal adverb	ahora,ayer	-
ADVTIN	adverb	temporal-interrogative	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Interrogative temporal adverb	cuándo	-
ADVTNE	adverb	temporal	-	-	-	-	-	-	-	-	-	negative	-	-	-	-	-	-	Negative temporal adverb	nunca	-
ADVTRE	adverb	temporal-relative	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Relative temporal adverb	cuando	-
ALFP	alphabet-letter	-	-	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Plural letter of the alphabet	As,Aes,bes	-
ALFS	alphabet-letter	-	-	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Singular letter of the alphabet	A,b	-
ARCAFS	article	indefinite-cardinal	feminine	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Feminine singular indefinite article and cardinal capable of pronominal function	una	-
ARCAMS	article	indefinite-cardinal	masculine	singular	-	-	-	-	-	-	-	-	non-pronominal	-	-	-	-	-	Masculine singular indefinite article and non pronominal cardinal	un	-
ARTDFP	article	definite	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural definite article	las	-
ARTDFS	article	definite	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular definite article	la	-
ARTDMP	article	definite	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural definite article	los	-
ARTDMS	article	definite	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular definite article	el	-
ARTDNS	article	definite	neuter	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Neuter singular definite article	lo	-
ARQUFP	article	indefinite-quantifier	feminine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Feminine plural indefinite article and quantifier capable of pronominal function	unas	-
ARQUMP	article	indefinite-quantifier	masculine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Masculine plural indefinite article and quantifier capable of pronominal function	unos	-
CARDGU	cardinal	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Hyphenated cardinals	40-50,1850-1990	-
CARDFP	cardinal	-	feminine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Plural feminine cardinal capable of pronominal function	doscientas	-
CARDMP	cardinal	-	masculine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Plural masculine cardinal capable of pronominal function	doscientos	-
CARDPS	cardinal	-	-	singular	-	-	-	-	-	-	-	-	pronominal	-	-	-	-	-	Singular pronominal cardinal	uno	-
CARDXP	cardinal	-	-	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Plural cardinal neutral for gender	dos,tres,mil	-
CARNMP	cardinal	-	masculine	plural	-	-	-	-	-	-	-	-	non-pronominal	-	-	-	-	-	Non pronominal plural masculine cardinal	veintiún	glossed plural in the source listing although the cited form is a singular prenominal; transcribed as written
CC	conjunction	coordinating	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Coordinating conjunction	y,o	-
CCAD	conjunction	adversative	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Adversative coordinating conjunction	pero	-
CCNEG	conjunction	negative-coordinating	-	-	-	-	-	-	-	-	-	negative	-	-	-	-	-	-	Negative coordinating conjunction	ni	-
CODE	code	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Alphanumeric code	-	-
CQUE	conjunction	que	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	que (as conjunction)	que	-
CSUBF	conjunction	subordinating-finite	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Subordinating conjunction that introduces finite clauses	apenas	-
CSUBI	conjunction	subordinating-infinite	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Subordinating conjunction that introduces infinite clauses	al	-
CSUBX	conjunction	subordinating-underspecified	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Subordinating conjunction underspecified for subord-type	aunque	-
DMDPFP	demonstrative	-	feminine	plural	-	-	-	-	-	distal	-	-	pronominal	-	-	-	-	-	Pronominal feminine plural demonstrative with distal deixis	ésas	-
DMDPFS	demonstrative	-	feminine	singular	-	-	-	-	-	distal	-	-	pronominal	-	-	-	-	-	Pronominal feminine singular demonstrative with distal deixis	ésa	-
DMDPMP	demonstrative	-	masculine	plural	-	-	-	-	-	distal	-	-	pronominal	-	-	-	-	-	Pronominal masculine plural demonstrative with distal deixis	ésos	-
DMDPMS	demonstrative	-	masculine	singular	-	-	-	-	-	distal	-	-	pronominal	-	-	-	-	-	Pronominal masculine singular demonstrative with distal deixis	ése	-
DMDPNS	demonstrative	-	neuter	singular	-	-	-	-	-	distal	-	-	pronominal	-	-	-	-	-	Pronominal neuter singular demonstrative with distal deixis	eso	-
DMDXFP	demonstrative	-	feminine	plural	-	-	-	-	-	distal	-	-	capable-of-pronominal	-	-	-	-	-	Feminine plural demonstrative (capable of pronominal function) with distal deixis	esas	-
DMDXFS	demonstrative	-	feminine	singular	-	-	-	-	-	distal	-	-	capable-of-pronominal	-	-	-	-	-	Feminine singular demonstrative (capable of pronominal function) with distal deixis	esa	-
DMDXMP	demonstrative	-	masculine	plural	-	-	-	-	-	distal	-	-	capable-of-pronominal	-	-	-	-	-	Masculine plural demonstrative (capable of pronominal function) with distal deixis	esos	-
DMDXMS	demonstrative	-	masculine	singular	-	-	-	-	-	distal	-	-	capable-of-pronominal	-	-	-	-	-	Masculine singular demonstrative (capable of pronominal function) with distal deixis	ese	-
DMPPFP	demonstrative	-	feminine	plural	-	-	-	-	-	proximal	-	-	pronominal	-	-	-	-	-	Pronominal feminine plural demonstrative with proximal deixis	éstas	-
DMPPFS	demonstrative	-	feminine	singular	-	-	-	-	-	proximal	-	-	pronominal	-	-	-	-	-	Pronominal feminine singular demonstrative with proximal deixis	ésta	-
DMPPMP	demonstrative	-	masculine	plural	-	-	-	-	-	proximal	-	-	pronominal	-	-	-	-	-	Pronominal masculine plural demonstrative with proximal deixis	éstos	-
DMPPMS	demonstrative	-	masculine	singular	-	-	-	-	-	proximal	-	-	pronominal	-	-	-	-	-	Pronominal masculine singular demonstrative with proximal deixis	éste	-
DMPXFP	demonstrative	-	feminine	plural	-	-	-	-	-	proximal	-	-	capable-of-pronominal	-	-	-	-	-	Feminine plural demonstrative (capable of pronominal function) with proximal deixis	estas	-
DMPXFS	demonstrative	-	feminine	singular	-	-	-	-	-	proximal	-	-	capable-of-pronominal	-	-	-	-	-	Feminine singular demonstrative (capable of pronominal function) with proximal deixis	esta	-
DMPXMP	demonstrative	-	masculine	plural	-	-	-	-	-	proximal	-	-	capable-of-pronominal	-	-	-	-	-	Masculine plural demonstrative (capable of pronominal function) with proximal deixis	estos	-
DMPXMS	demonstrative	-	masculine	singular	-	-	-	-	-	proximal	-	-	capable-of-pronominal	-	-	-	-	-	Masculine singular demonstrative (capable of pronominal function) with proximal deixis	este	-
DMRPFP	demonstrative	-	feminine	plural	-	-	-	-	-	remote	-	-	pronominal	-	-	-	-	-	Pronominal feminine plural demonstrative with remote deixis	aquéllas	-
DMRPFS	demonstrative	-	feminine	singular	-	-	-	-	-	remote	-	-	pronominal	-	-	-	-	-	Pronominal feminine singular demonstrative with remote deixis	aquélla	-
DMRPMP	demonstrative	-	masculine	plural	-	-	-	-	-	remote	-	-	pronominal	-	-	-	-	-	Pronominal masculine plural demonstrative with remote deixis	aquéllos	-
DMRPMS	demonstrative	-	masculine	singular	-	-	-	-	-	remote	-	-	pronominal	-	-	-	-	-	Pronominal masculine singular demonstrative with remote deixis	aquél	-
DMRPNS	demonstrative	-	neuter	singular	-	-	-	-	-	remote	-	-	pronominal	-	-	-	-	-	Pronominal neuter singular demonstrative with remote deixis	aquello	-
DMRXFP	demonstrative	-	feminine	plural	-	-	-	-	-	remote	-	-	capable-of-pronominal	-	-	-	-	-	Feminine plural demonstrative (capable of pronominal function) with remote deixis	aquellas	-
DMRXFS	demonstrative	-	feminine	singular	-	-	-	-	-	remote	-	-	capable-of-pronominal	-	-	-	-	-	Feminine singular demonstrative (capable of pronominal function) with remote deixis	aquella	-
DMRXMP	demonstrative	-	masculine	plural	-	-	-	-	-	remote	-	-	capable-of-pronominal	-	-	-	-	-	Masculine plural demonstrative (capable of pronominal function) with remote deixis	aquellos	-
DMRXMS	demonstrative	-	masculine	singular	-	-	-	-	-	remote	-	-	capable-of-pronominal	-	-	-	-	-	Masculine singular demonstrative (capable of pronominal function) with remote deixis	aquel	-
DMPPNS	demonstrative	-	neuter	singular	-	-	-	-	-	proximal	-	-	pronominal	-	-	-	-	-	Pronominal neuter singular demonstrative with proximal deixis	esto	-
FO	formula	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Formula	-	-
INTPXP	interrogative	-	-	plural	-	-	-	-	-	-	-	-	pronominal	animate	-	-	-	-	Plural interrogative pronoun for animates neutral for gender	quiénes	-
INTPXS	interrogative	-	-	singular	-	-	-	-	-	-	-	-	pronominal	animate	-	-	-	-	Singular interrogative pronoun for animates neutral for gender	quién	-
INTXXX	interrogative	-	-	-	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Interrogative capable of pronominal function neutral for gender and number	qué	-
INTXFP	interrogative	-	feminine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Feminine plural interrogative capable of pronominal function	cuántas	-
INTXFS	interrogative	-	feminine	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	inanimate	-	-	-	-	Feminine singular interrogative capable of pronominal function for inanimates	cuánta	-
INTXMP	interrogative	-	masculine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Masculine plural interrogative capable of pronominal function	cuántos	-
INTXMS	interrogative	-	masculine	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	inanimate	-	-	-	-	Masculine and neuter singular interrogative capable of pronominal function for inanimates	cuánto	-
INTXXP	interrogative	-	-	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Plural interrogative neutral for gender capable of pronominal function	cuáles	-
INTXXS	interrogative	-	-	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Singular interrogative neutral for gender capable of pronominal function	cuál	-
ITJN	interjection	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Interjection	oh,ja	-
NCFP	noun	common	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural common noun	mesas,manos	-
NCFS	noun	common	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular common noun	mesa,mano	-
NCMP	noun	common	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural common noun	libros,ordenadores	-
NCMS	noun	common	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular common noun	libro,ordenador	-
NEG	negation	-	-	-	-	-	-	-	-	-	-	negative	-	-	-	-	-	-	Negation	-	-
NLOCFP	noun	locative	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural locative noun	islas,avenidas	-
NLOCFS	noun	locative	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular locative noun	isla,calle	-
NLOCMP	noun	locative	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural locative noun	montes	-
NLOCMS	noun	locative	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular locative noun	monte	-
NMEAFP	noun	measure	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural unit of measure noun	hectáreas,micras	-
NMEAFS	noun	measure	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular unit of measure noun	hectárea,micra	-
NMEAMP	noun	measure	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural unit of measure noun	metros,litros	-
NMEAMS	noun	measure	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular unit of measure noun	metro,litro	-
NNUMFP	noun	numeral	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural numeral noun	docenas	-
NNUMFS	noun	numeral	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular numeral noun	docena	-
NNUMMP	noun	numeral	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural numeral noun	millares	-
NNUMMS	noun	numeral	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular numeral noun	millar,tercio	-
NORGFP	noun	organization	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural organization noun	confederaciones	-
NORGFS	noun	organization	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular organization noun	confederación	-
NORGMP	noun	organization	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural organization noun	gobiernos,comités	-
NORGMS	noun	organization	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular organization noun	consejo,departamento	-
NPAFP	noun	anthroponym	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural proper anthroponymous noun	Marías	-
NPAFS	noun	anthroponym	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular proper anthroponymous noun	María	-
NPAMP	noun	anthroponym	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural proper anthroponymous noun	Juanes	-
NPAMS	noun	anthroponym	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular proper anthroponymous noun	Juan	-
NPAXX	noun	anthroponym	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Proper anthroponymous noun neutral for gender and number	Rodríguez,Sanchís	-
NPTOP	noun	toponym-or-org	-	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Plural proper toponym or organization noun	Coreas	-
NPTOS	noun	toponym-or-org	-	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Singular proper toponym or organization noun	IBM,Madrid	-
NPTP	noun	toponym	-	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Plural proper toponym noun	Pirineos	-
NPTS	noun	toponym	-	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Singular proper toponym noun	Guadalquivir	-
NTMPFP	noun	temporal	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural temporal noun	semanas,quincenas	-
NTMPFS	noun	temporal	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular temporal noun	semana,quincena	-
NTMPMP	noun	temporal	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural temporal noun	días,años	-
NTMPMS	noun	temporal	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular temporal noun	día,año	-
ORDNMS	ordinal	-	masculine	singular	-	-	-	-	-	-	-	-	non-pronominal	-	-	-	-	-	Masculine singular non pronominal ordinal	primer,tercer	-
ORDXFP	ordinal	-	feminine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Feminine plural ordinal capable of pronominal function	primeras,segundas	-
ORDXFS	ordinal	-	feminine	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Feminine singular ordinal capable of pronominal function	primera,segunda	-
ORDXMP	ordinal	-	masculine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Masculine plural ordinal capable of pronominal function	primeros,segundos	-
ORDXMS	ordinal	-	masculine	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Masculine singular ordinal capable of pronominal function	primero,segundo	-
PAL	portmanteau	a-el	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Portmanteau word formed by a and el	al	-
PDEL	portmanteau	de-el	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Portmanteau word formed by de and el	del	-
PE	foreign-word	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Foreign word	-	-
PNC	unclassified	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Unclassified word	-	-
PPC1P	pronoun	personal-clitic	-	plural	first	-	-	-	-	-	-	-	-	-	direct-or-indirect-object	-	-	-	Clitic personal pronoun, first person plural DO/IO	nos	-
PPC1S	pronoun	personal-clitic	-	singular	first	-	-	-	-	-	-	-	-	-	direct-or-indirect-object	-	-	-	Clitic personal pronoun, first person singular DO/IO	me	-
PPC2P	pronoun	personal-clitic	-	plural	second	-	-	-	-	-	-	-	-	-	direct-or-indirect-object	-	-	-	Clitic personal pronoun, second person plural DO/IO	os	-
PPC2S	pronoun	personal-clitic	-	singular	second	-	-	-	-	-	-	-	-	-	direct-or-indirect-object	-	-	-	Clitic personal pronoun, second person singular DO/IO	te	-
PPC3P	pronoun	personal-clitic	-	plural	third	-	-	-	-	-	-	-	-	-	direct-or-indirect-object	-	-	-	Clitic personal pronoun, third person plural DO/IO	les	-
PPC3S	pronoun	personal-clitic	-	singular	third	-	-	-	-	-	-	-	-	-	direct-or-indirect-object	-	-	-	Clitic personal pronoun, third person singular DO/IO	le	-
PPN1S	pronoun	personal	-	singular	first	-	-	-	-	-	-	-	-	-	nominative	-	-	-	Personal pronoun, first person singular nominative	yo	-
PPN2S	pronoun	personal	-	singular	second	-	-	-	-	-	-	-	-	-	nominative	-	-	-	Personal pronoun, second person singular nominative	tú	-
PPO3FP	pronoun	personal-clitic	feminine	plural	third	-	-	-	-	-	-	-	-	-	direct-object	-	-	-	Clitic personal pronoun, feminine third person plural DO	las	-
PPO3FS	pronoun	personal-clitic	feminine	singular	third	-	-	-	-	-	-	-	-	-	direct-object	-	-	-	Clitic personal pronoun, feminine third person singular DO	la	-
PPO3MP	pronoun	personal-clitic	masculine	plural	third	-	-	-	-	-	-	-	-	-	direct-object	-	-	-	Clitic personal pronoun, masculine third person plural DO	los	-
PPO3XS	pronoun	personal-clitic	-	singular	third	-	-	-	-	-	-	-	-	-	direct-object	-	-	-	Clitic personal pronoun, masculine or neuter third person singular DO	lo	-
PPOSFP	pronoun	possessive	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	full-form	Feminine plural possessive pronoun	tuyas,suyas	-
PPOSFS	pronoun	possessive	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	full-form	Feminine singular possessive pronoun	mía,tuya	-
PPOSMP	pronoun	possessive	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	full-form	Masculine plural possessive pronoun	míos,tuyos	-
PPOSMS	pronoun	possessive	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	full-form	Masculine singular possessive pronoun	tuyo,suyo	-
PPOSPP	pronoun	possessive	-	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	prenominal	Plural prenominal possessive pronoun	mis,tus,sus	-
PPOSPS	pronoun	possessive	-	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	prenominal	Singular prenominal possessive pronoun	mi,tu,su	-
PPP1S	pronoun	personal	-	singular	first	-	-	-	-	-	-	-	-	-	oblique	-	-	-	Personal pronoun, first person singular oblique	mí	-
PPP2S	pronoun	personal	-	singular	second	-	-	-	-	-	-	-	-	-	oblique	-	-	-	Personal pronoun, second person singular oblique	ti	-
PPP3X	pronoun	personal	-	-	third	-	-	-	-	-	-	-	-	-	oblique	-	-	-	Personal pronoun, third person neutral for number oblique	sí	-
PPX1FP	pronoun	personal	feminine	plural	first	-	-	-	-	-	-	-	-	-	nominative-or-oblique	-	-	-	Personal pronoun, feminine first person plural nominative or oblique	nosotras	-
PPX1MP	pronoun	personal	masculine	plural	first	-	-	-	-	-	-	-	-	-	nominative-or-oblique	-	-	-	Personal pronoun, masculine first person plural nominative or oblique	nosotros	-
PPX2FP	pronoun	personal	feminine	plural	second	-	-	-	-	-	-	-	-	-	nominative-or-oblique	-	-	-	Personal pronoun, feminine second person plural nominative or oblique	vosotras	-
PPX2MP	pronoun	personal	masculine	plural	second	-	-	-	-	-	-	-	-	-	nominative-or-oblique	-	-	-	Personal pronoun, masculine second person plural nominative or oblique	vosotros	-
PPX3FP	pronoun	personal	feminine	plural	third	-	-	-	-	-	-	-	-	-	nominative-or-oblique	-	-	-	Personal pronoun, feminine third person plural nominative or oblique	ellas	-
PPX3FS	pronoun	personal	feminine	singular	third	-	-	-	-	-	-	-	-	-	nominative-or-oblique	-	-	-	Personal pronoun, feminine third person singular nominative or oblique	ella	-
PPX3MP	pronoun	personal	masculine	plural	third	-	-	-	-	-	-	-	-	-	nominative-or-oblique	-	-	-	Personal pronoun, masculine third person plural nominative or oblique	ellos	-
PPX3MS	pronoun	personal	masculine	singular	third	-	-	-	-	-	-	-	-	-	nominative-or-oblique	-	-	-	Personal pronoun, masculine third person singular nominative or oblique	él	-
PPX3NS	pronoun	personal	neuter	singular	third	-	-	-	-	-	-	-	-	-	nominative-or-oblique	-	-	-	Personal pronoun, neuter third person singular nominative or oblique	ello	-
PPXT2P	pronoun	personal	-	plural	second	-	-	-	-	-	-	-	-	-	nominative-or-oblique	polite	-	-	Personal pronoun, second person plural polite nominative or oblique	ustedes	-
PPXT2S	pronoun	personal	-	singular	second	-	-	-	-	-	-	-	-	-	nominative-or-oblique	polite	-	-	Personal pronoun, second person singular polite nominative or oblique	usted	-
PREP	preposition	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Preposition	-	-
PREPN	preposition	-	-	-	-	-	-	-	-	-	-	negative	-	-	-	-	-	-	Negative preposition	sin	-
QUDF	quantifier	distributive	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural distributive quantifier	sendas	-
QUDM	quantifier	distributive	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural distributive quantifier	sendos	-
QUDX	quantifier	distributive	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Distributive quantifier neutral for gender and number	cada	-
QUPMUL	quantifier	multiple	-	singular	-	-	-	-	-	-	-	-	pronominal	-	-	-	-	-	Singular pronominal quantifier that indicates multiples	doble,triple	-
QUNFP	quantifier	-	feminine	plural	-	-	-	-	-	-	-	-	non-pronominal	-	-	-	-	-	Feminine plural non pronominal quantifier	diversas	-
QUNFS	quantifier	-	feminine	singular	-	-	-	-	-	-	-	-	non-pronominal	-	-	-	-	-	Feminine singular non pronominal quantifier	cualquier	-
QUNMP	quantifier	-	masculine	plural	-	-	-	-	-	-	-	-	non-pronominal	-	-	-	-	-	Masculine plural non pronominal quantifier	diversos	-
QUNMS	quantifier	-	masculine	singular	-	-	-	-	-	-	-	-	non-pronominal	-	-	-	-	-	Masculine singular non pronominal quantifier	algún	-
QUNNMS	quantifier	-	masculine	singular	-	-	-	-	-	-	-	negative	non-pronominal	-	-	-	-	-	Masculine singular non pronominal quantifier with negative polarity	ningún	-
QUPA	quantifier	-	-	singular	-	-	-	-	-	-	-	-	pronominal	animate	-	-	-	-	Singular pronominal quantifier for animates	alguien	-
QUPI	quantifier	-	-	singular	-	-	-	-	-	-	-	-	pronominal	inanimate	-	-	-	-	Singular pronominal quantifier for inanimates	algo	-
QUPNA	quantifier	-	-	singular	-	-	-	-	-	-	-	negative	pronominal	animate	-	-	-	-	Singular pronominal quantifier for animates with negative polarity	nadie	-
QUPNI	quantifier	-	masculine	singular	-	-	-	-	-	-	-	negative	pronominal	inanimate	-	-	-	-	Masculine singular pronominal quantifier for inanimates with negative polarity	nada	-
QUPNX	quantifier	-	masculine	singular	-	-	-	-	-	-	-	negative	pronominal	-	-	-	-	-	Masculine singular pronominal quantifier with negative polarity underspecified for animates and inanimates	ninguno	-
QUXFP	quantifier	-	feminine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Feminine plural quantifier capable of pronominal function	todas,algunas,cualesquiera	-
QUXFS	quantifier	-	feminine	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Feminine singular quantifier capable of pronominal function	toda,alguna,cualquiera	-
QUXMP	quantifier	-	masculine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Masculine plural quantifier capable of pronominal function	todos,algunos,cualesquiera	-
QUXMS	quantifier	-	masculine	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Masculine singular quantifier capable of pronominal function	todo,alguno,cualquiera	-
QUXNFP	quantifier	-	feminine	plural	-	-	-	-	-	-	-	negative	capable-of-pronominal	-	-	-	-	-	Feminine plural quantifier capable of pronominal function with negative polarity	ningunas	-
QUXNFS	quantifier	-	feminine	singular	-	-	-	-	-	-	-	negative	capable-of-pronominal	-	-	-	-	-	Feminine singular quantifier capable of pronominal function with negative polarity	ninguna	-
QUXNMP	quantifier	-	masculine	plural	-	-	-	-	-	-	-	negative	capable-of-pronominal	-	-	-	-	-	Masculine plural quantifier capable of pronominal function with negative polarity	ningunos	-
RELPFP	relative	possessive	feminine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine plural possessive relative pronoun	cuyas	-
RELPFS	relative	possessive	feminine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine singular possessive relative pronoun	cuya	-
RELPMP	relative	possessive	masculine	plural	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine plural possessive relative pronoun	cuyos	-
RELPMS	relative	possessive	masculine	singular	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine singular possessive relative pronoun	cuyo	-
RELPXP	relative	-	-	plural	-	-	-	-	-	-	-	-	pronominal	animate	-	-	-	-	Plural relative pronoun for animates, neutral for gender	quienes	-
RELPXS	relative	-	-	singular	-	-	-	-	-	-	-	-	pronominal	animate	-	-	-	-	Singular relative pronoun for animates, neutral for gender	quien	-
RELXFP	relative	-	feminine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Feminine plural relative pronoun capable of pronominal function	cuantas	-
RELXFS	relative	-	feminine	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Feminine singular relative pronoun capable of pronominal function	cuanta	-
RELXMP	relative	-	masculine	plural	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Masculine plural relative pronoun capable of pronominal function	cuantos	-
RELXMS	relative	-	masculine	singular	-	-	-	-	-	-	-	-	capable-of-pronominal	-	-	-	-	-	Masculine singular relative pronoun capable of pronominal function	cuanto	-
SE	se-particle	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Se (as particle)	se	-
TRATF	title-noun	-	feminine	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine noun of title	Sra.,Dña.,Exma.	-
TRATM	title-noun	-	masculine	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine noun of title	Sr.,D.,Prof.,Exmo.	-
UMFX	unit-of-measure	-	feminine	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Feminine unit of measurement, neutral for number	pta.	-
UMMX	unit-of-measure	-	masculine	-	-	-	-	-	-	-	-	-	-	-	-	-	-	-	Masculine unit of measurement, neutral for number	cm.	-
VECI1P	verb	-	-	plural	first	-	estar	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative conditional tense first person plural	-	-
VECI1S	verb	-	-	singular	first	-	estar	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative conditional tense first person singular	-	-
VECI2P	verb	-	-	plural	second	-	estar	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative conditional tense second person plural	-	-
VECI2S	verb	-	-	singular	second	-	estar	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative conditional tense second person singular	-	-
VECI3P	verb	-	-	plural	third	-	estar	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative conditional tense third person plural	-	-
VECI3S	verb	-	-	singular	third	-	estar	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative conditional tense third person singular	-	-
VEFI1P	verb	-	-	plural	first	-	estar	future	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative future tense first person plural	-	-
VEFI1S	verb	-	-	singular	first	-	estar	future	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative future tense first person singular	-	-
VEFI2P	verb	-	-	plural	second	-	estar	future	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative future tense second person plural	-	-
VEFI2S	verb	-	-	singular	second	-	estar	future	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative future tense second person singular	-	-
VEFI3P	verb	-	-	plural	third	-	estar	future	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative future tense third person plural	-	-
VEFI3S	verb	-	-	singular	third	-	estar	future	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative future tense third person singular	-	-
VEFS1P	verb	-	-	plural	first	-	estar	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive future tense first person plural	-	-
VEFS1S	verb	-	-	singular	first	-	estar	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive future tense first person singular	-	-
VEFS2P	verb	-	-	plural	second	-	estar	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive future tense second person plural	-	-
VEFS2S	verb	-	-	singular	second	-	estar	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive future tense second person singular	-	-
VEFS3P	verb	-	-	plural	third	-	estar	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive future tense third person plural	-	-
VEFS3S	verb	-	-	singular	third	-	estar	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive future tense third person singular	-	-
VEGER	verb	-	-	-	-	-	estar	-	gerund	-	-	-	-	-	-	-	-	-	Verb estar. Gerund	-	-
VEII1P	verb	-	-	plural	first	-	estar	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative imperfect tense first person plural	-	-
VEII1S	verb	-	-	singular	first	-	estar	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative imperfect tense first person singular	-	-
VEII2P	verb	-	-	plural	second	-	estar	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative imperfect tense second person plural	-	-
VEII2S	verb	-	-	singular	second	-	estar	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative imperfect tense second person singular	-	-
VEII3P	verb	-	-	plural	third	-	estar	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative imperfect tense third person plural	-	-
VEII3S	verb	-	-	singular	third	-	estar	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative imperfect tense third person singular	-	-
VEINF	verb	-	-	-	-	-	estar	-	infinitive	-	-	-	-	-	-	-	-	-	Verb estar. Infinitive	-	-
VEIS1P	verb	-	-	plural	first	-	estar	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive imperfect tense first person plural	-	-
VEIS1S	verb	-	-	singular	first	-	estar	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive imperfect tense first person singular	-	-
VEIS2P	verb	-	-	plural	second	-	estar	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive imperfect tense second person plural	-	-
VEIS2S	verb	-	-	singular	second	-	estar	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive imperfect tense second person singular	-	-
VEIS3P	verb	-	-	plural	third	-	estar	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive imperfect tense third person plural	-	-
VEIS3S	verb	-	-	singular	third	-	estar	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive imperfect tense third person singular	-	-
VEPI1P	verb	-	-	plural	first	-	estar	present	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative present tense first person plural	-	-
VEPI1S	verb	-	-	singular	first	-	estar	present	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative present tense first person singular	-	-
VEPI2P	verb	-	-	plural	second	-	estar	present	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative present tense second person plural	-	-
VEPI2S	verb	-	-	singular	second	-	estar	present	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative present tense second person singular	-	-
VEPI3P	verb	-	-	plural	third	-	estar	present	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative present tense third person plural	-	-
VEPI3S	verb	-	-	singular	third	-	estar	present	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative present tense third person singular	-	-
VEPM2P	verb	-	-	plural	second	-	estar	-	imperative	-	-	-	-	-	-	-	-	-	Verb estar. Imperative second person plural	-	-
VEPM2S	verb	-	-	singular	second	-	estar	-	imperative	-	-	-	-	-	-	-	-	-	Verb estar. Imperative second person singular	-	-
VEPS1P	verb	-	-	plural	first	-	estar	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive present tense first person plural	-	-
VEPS1S	verb	-	-	singular	first	-	estar	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive present tense first person singular	-	-
VEPS2P	verb	-	-	plural	second	-	estar	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive present tense second person plural	-	-
VEPS2S	verb	-	-	singular	second	-	estar	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive present tense second person singular	-	-
VEPS3P	verb	-	-	plural	third	-	estar	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive present tense third person plural	-	-
VEPS3S	verb	-	-	singular	third	-	estar	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb estar. Subjunctive present tense third person singular	-	-
VEPX	verb	-	-	-	-	-	estar	-	past-participle	-	-	-	-	-	-	-	-	-	Verb estar. Past participle	-	-
VEXI1P	verb	-	-	plural	first	-	estar	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative preterite tense first person plural	-	-
VEXI1S	verb	-	-	singular	first	-	estar	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative preterite tense first person singular	-	-
VEXI2P	verb	-	-	plural	second	-	estar	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative preterite tense second person plural	-	-
VEXI2S	verb	-	-	singular	second	-	estar	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative preterite tense second person singular	-	-
VEXI3P	verb	-	-	plural	third	-	estar	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative preterite tense third person plural	-	-
VEXI3S	verb	-	-	singular	third	-	estar	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb estar. Indicative preterite tense third person singular	-	-
VHCI1P	verb	-	-	plural	first	-	haber	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative conditional tense first person plural	-	-
VHCI1S	verb	-	-	singular	first	-	haber	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative conditional tense first person singular	-	-
VHCI2P	verb	-	-	plural	second	-	haber	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative conditional tense second person plural	-	-
VHCI2S	verb	-	-	singular	second	-	haber	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative conditional tense second person singular	-	-
VHCI3P	verb	-	-	plural	third	-	haber	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative conditional tense third person plural	-	-
VHCI3S	verb	-	-	singular	third	-	haber	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative conditional tense third person singular	-	-
VHFI1P	verb	-	-	plural	first	-	haber	future	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative future tense first person plural	-	-
VHFI1S	verb	-	-	singular	first	-	haber	future	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative future tense first person singular	-	-
VHFI2P	verb	-	-	plural	second	-	haber	future	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative future tense second person plural	-	-
VHFI2S	verb	-	-	singular	second	-	haber	future	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative future tense second person singular	-	-
VHFI3P	verb	-	-	plural	third	-	haber	future	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative future tense third person plural	-	-
VHFI3S	verb	-	-	singular	third	-	haber	future	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative future tense third person singular	-	-
VHFS1P	verb	-	-	plural	first	-	haber	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive future tense first person plural	-	-
VHFS1S	verb	-	-	singular	first	-	haber	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive future tense first person singular	-	-
VHFS2P	verb	-	-	plural	second	-	haber	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive future tense second person plural	-	-
VHFS2S	verb	-	-	singular	second	-	haber	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive future tense second person singular	-	-
VHFS3P	verb	-	-	plural	third	-	haber	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive future tense third person plural	-	-
VHFS3S	verb	-	-	singular	third	-	haber	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive future tense third person singular	-	-
VHGER	verb	-	-	-	-	-	haber	-	gerund	-	-	-	-	-	-	-	-	-	Verb haber. Gerund	-	-
VHII1P	verb	-	-	plural	first	-	haber	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative imperfect tense first person plural	-	-
VHII1S	verb	-	-	singular	first	-	haber	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative imperfect tense first person singular	-	-
VHII2P	verb	-	-	plural	second	-	haber	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative imperfect tense second person plural	-	-
VHII2S	verb	-	-	singular	second	-	haber	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative imperfect tense second person singular	-	-
VHII3P	verb	-	-	plural	third	-	haber	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative imperfect tense third person plural	-	-
VHII3S	verb	-	-	singular	third	-	haber	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative imperfect tense third person singular	-	-
VHINF	verb	-	-	-	-	-	haber	-	infinitive	-	-	-	-	-	-	-	-	-	Verb haber. Infinitive	-	-
VHIS1P	verb	-	-	plural	first	-	haber	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive imperfect tense first person plural	-	-
VHIS1S	verb	-	-	singular	first	-	haber	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive imperfect tense first person singular	-	-
VHIS2P	verb	-	-	plural	second	-	haber	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive imperfect tense second person plural	-	-
VHIS2S	verb	-	-	singular	second	-	haber	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive imperfect tense second person singular	-	-
VHIS3P	verb	-	-	plural	third	-	haber	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive imperfect tense third person plural	-	-
VHIS3S	verb	-	-	singular	third	-	haber	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive imperfect tense third person singular	-	-
VHPI1P	verb	-	-	plural	first	-	haber	present	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative present tense first person plural	-	-
VHPI1S	verb	-	-	singular	first	-	haber	present	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative present tense first person singular	-	-
VHPI2P	verb	-	-	plural	second	-	haber	present	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative present tense second person plural	-	-
VHPI2S	verb	-	-	singular	second	-	haber	present	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative present tense second person singular	-	-
VHPI3E	verb	-	-	singular	third	-	haber	present	indicative	-	-	-	-	-	-	-	true	-	Verb haber. Indicative present tense third person singular existential	-	-
VHPI3P	verb	-	-	plural	third	-	haber	present	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative present tense third person plural	-	-
VHPI3S	verb	-	-	singular	third	-	haber	present	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative present tense third person singular	-	-
VHPS1P	verb	-	-	plural	first	-	haber	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive present tense first person plural	-	-
VHPS1S	verb	-	-	singular	first	-	haber	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive present tense first person singular	-	-
VHPS2P	verb	-	-	plural	second	-	haber	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive present tense second person plural	-	-
VHPS2S	verb	-	-	singular	second	-	haber	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive present tense second person singular	-	-
VHPS3P	verb	-	-	plural	third	-	haber	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive present tense third person plural	-	-
VHPS3S	verb	-	-	singular	third	-	haber	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb haber. Subjunctive present tense third person singular	-	-
VHPXFP	verb	-	feminine	plural	-	-	haber	-	past-participle	-	-	-	-	-	-	-	-	-	Verb haber. Feminine plural past participle	-	-
VHPXFS	verb	-	feminine	singular	-	-	haber	-	past-participle	-	-	-	-	-	-	-	-	-	Verb haber. Feminine singular past participle	-	-
VHPXMP	verb	-	masculine	plural	-	-	haber	-	past-participle	-	-	-	-	-	-	-	-	-	Verb haber. Masculine plural past participle	-	-
VHPXMS	verb	-	masculine	singular	-	-	haber	-	past-participle	-	-	-	-	-	-	-	-	-	Verb haber. Masculine singular past participle	-	-
VHXI1P	verb	-	-	plural	first	-	haber	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative preterite tense first person plural	-	-
VHXI1S	verb	-	-	singular	first	-	haber	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative preterite tense first person singular	-	-
VHXI2P	verb	-	-	plural	second	-	haber	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative preterite tense second person plural	-	-
VHXI2S	verb	-	-	singular	second	-	haber	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative preterite tense second person singular	-	-
VHXI3P	verb	-	-	plural	third	-	haber	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative preterite tense third person plural	-	-
VHXI3S	verb	-	-	singular	third	-	haber	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb haber. Indicative preterite tense third person singular	-	-
VLCI1P	verb	-	-	plural	first	-	lexical	conditional	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative conditional tense first person plural	-	-
VLCI1S	verb	-	-	singular	first	-	lexical	conditional	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative conditional tense first person singular	-	-
VLCI2P	verb	-	-	plural	second	-	lexical	conditional	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative conditional tense second person plural	-	-
VLCI2S	verb	-	-	singular	second	-	lexical	conditional	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative conditional tense second person singular	-	-
VLCI3P	verb	-	-	plural	third	-	lexical	conditional	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative conditional tense third person plural	-	-
VLCI3S	verb	-	-	singular	third	-	lexical	conditional	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative conditional tense third person singular	-	-
VLFI1P	verb	-	-	plural	first	-	lexical	future	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative future tense first person plural	-	-
VLFI1S	verb	-	-	singular	first	-	lexical	future	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative future tense first person singular	-	-
VLFI2P	verb	-	-	plural	second	-	lexical	future	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative future tense second person plural	-	-
VLFI2S	verb	-	-	singular	second	-	lexical	future	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative future tense second person singular	-	-
VLFI3P	verb	-	-	plural	third	-	lexical	future	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative future tense third person plural	-	-
VLFI3S	verb	-	-	singular	third	-	lexical	future	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative future tense third person singular	-	-
VLFS1P	verb	-	-	plural	first	-	lexical	future	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive future tense first person plural	-	-
VLFS1S	verb	-	-	singular	first	-	lexical	future	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive future tense first person singular	-	-
VLFS2P	verb	-	-	plural	second	-	lexical	future	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive future tense second person plural	-	-
VLFS2S	verb	-	-	singular	second	-	lexical	future	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive future tense second person singular	-	-
VLFS3P	verb	-	-	plural	third	-	lexical	future	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive future tense third person plural	-	-
VLFS3S	verb	-	-	singular	third	-	lexical	future	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive future tense third person singular	-	-
VLGER	verb	-	-	-	-	-	lexical	-	gerund	-	-	-	-	-	-	-	-	-	Lexical verb. Gerund	-	-
VLII1P	verb	-	-	plural	first	-	lexical	imperfect	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative imperfect tense first person plural	-	-
VLII1S	verb	-	-	singular	first	-	lexical	imperfect	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative imperfect tense first person singular	-	-
VLII2P	verb	-	-	plural	second	-	lexical	imperfect	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative imperfect tense second person plural	-	-
VLII2S	verb	-	-	singular	second	-	lexical	imperfect	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative imperfect tense second person singular	-	-
VLII3P	verb	-	-	plural	third	-	lexical	imperfect	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative imperfect tense third person plural	-	-
VLII3S	verb	-	-	singular	third	-	lexical	imperfect	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative imperfect tense third person singular	-	-
VLINF	verb	-	-	-	-	-	lexical	-	infinitive	-	-	-	-	-	-	-	-	-	Lexical verb. Infinitive	-	-
VLIS1P	verb	-	-	plural	first	-	lexical	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive imperfect tense first person plural	-	-
VLIS1S	verb	-	-	singular	first	-	lexical	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive imperfect tense first person singular	-	-
VLIS2P	verb	-	-	plural	second	-	lexical	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive imperfect tense second person plural	-	-
VLIS2S	verb	-	-	singular	second	-	lexical	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive imperfect tense second person singular	-	-
VLIS3P	verb	-	-	plural	third	-	lexical	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive imperfect tense third person plural	-	-
VLIS3S	verb	-	-	singular	third	-	lexical	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive imperfect tense third person singular	-	-
VLPI1P	verb	-	-	plural	first	-	lexical	present	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative present tense first person plural	-	-
VLPI1S	verb	-	-	singular	first	-	lexical	present	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative present tense first person singular	-	-
VLPI2P	verb	-	-	plural	second	-	lexical	present	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative present tense second person plural	-	-
VLPI2S	verb	-	-	singular	second	-	lexical	present	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative present tense second person singular	-	-
VLPI3P	verb	-	-	plural	third	-	lexical	present	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative present tense third person plural	-	-
VLPI3S	verb	-	-	singular	third	-	lexical	present	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative present tense third person singular	-	-
VLPM2P	verb	-	-	plural	second	-	lexical	-	imperative	-	-	-	-	-	-	-	-	-	Lexical verb. Imperative second person plural	-	-
VLPM2S	verb	-	-	singular	second	-	lexical	-	imperative	-	-	-	-	-	-	-	-	-	Lexical verb. Imperative second person singular	-	-
VLPPFP	verb	-	feminine	plural	-	-	lexical	-	present-participle	-	-	-	-	-	-	-	-	-	Lexical verb. Feminine plural present participle	-	-
VLPPFS	verb	-	feminine	singular	-	-	lexical	-	present-participle	-	-	-	-	-	-	-	-	-	Lexical verb. Feminine singular present participle	-	-
VLPPMP	verb	-	masculine	plural	-	-	lexical	-	present-participle	-	-	-	-	-	-	-	-	-	Lexical verb. Masculine plural present participle	-	-
VLPPMS	verb	-	masculine	singular	-	-	lexical	-	present-participle	-	-	-	-	-	-	-	-	-	Lexical verb. Masculine singular present participle	-	-
VLPS1P	verb	-	-	plural	first	-	lexical	present	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive present tense first person plural	-	-
VLPS1S	verb	-	-	singular	first	-	lexical	present	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive present tense first person singular	-	-
VLPS2P	verb	-	-	plural	second	-	lexical	present	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive present tense second person plural	-	-
VLPS2S	verb	-	-	singular	second	-	lexical	present	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive present tense second person singular	-	-
VLPS3P	verb	-	-	plural	third	-	lexical	present	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive present tense third person plural	-	-
VLPS3S	verb	-	-	singular	third	-	lexical	present	subjunctive	-	-	-	-	-	-	-	-	-	Lexical verb. Subjunctive present tense third person singular	-	-
VLPXFP	verb	-	feminine	plural	-	-	lexical	-	past-participle	-	-	-	-	-	-	-	-	-	Lexical verb. Feminine plural past participle	-	-
VLPXFS	verb	-	feminine	singular	-	-	lexical	-	past-participle	-	-	-	-	-	-	-	-	-	Lexical verb. Feminine singular past participle	-	-
VLPXMP	verb	-	masculine	plural	-	-	lexical	-	past-participle	-	-	-	-	-	-	-	-	-	Lexical verb. Masculine plural past participle	-	-
VLPXMS	verb	-	masculine	singular	-	-	lexical	-	past-participle	-	-	-	-	-	-	-	-	-	Lexical verb. Masculine singular past participle	-	-
VLXI1P	verb	-	-	plural	first	-	lexical	preterite	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative preterite tense first person plural	-	-
VLXI1S	verb	-	-	singular	first	-	lexical	preterite	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative preterite tense first person singular	-	-
VLXI2P	verb	-	-	plural	second	-	lexical	preterite	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative preterite tense second person plural	-	-
VLXI2S	verb	-	-	singular	second	-	lexical	preterite	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative preterite tense second person singular	-	-
VLXI3P	verb	-	-	plural	third	-	lexical	preterite	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative preterite tense third person plural	-	-
VLXI3S	verb	-	-	singular	third	-	lexical	preterite	indicative	-	-	-	-	-	-	-	-	-	Lexical verb. Indicative preterite tense third person singular	-	-
VMCI1P	verb	-	-	plural	first	-	modal	conditional	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative conditional tense first person plural	-	-
VMCI1S	verb	-	-	singular	first	-	modal	conditional	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative conditional tense first person singular	-	-
VMCI2P	verb	-	-	plural	second	-	modal	conditional	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative conditional tense second person plural	-	-
VMCI2S	verb	-	-	singular	second	-	modal	conditional	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative conditional tense second person singular	-	-
VMCI3P	verb	-	-	plural	third	-	modal	conditional	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative conditional tense third person plural	-	-
VMCI3S	verb	-	-	singular	third	-	modal	conditional	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative conditional tense third person singular	-	-
VMFI1P	verb	-	-	plural	first	-	modal	future	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative future tense first person plural	-	-
VMFI1S	verb	-	-	singular	first	-	modal	future	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative future tense first person singular	-	-
VMFI2P	verb	-	-	plural	second	-	modal	future	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative future tense second person plural	-	-
VMFI2S	verb	-	-	singular	second	-	modal	future	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative future tense second person singular	-	-
VMFI3P	verb	-	-	plural	third	-	modal	future	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative future tense third person plural	-	-
VMFI3S	verb	-	-	singular	third	-	modal	future	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative future tense third person singular	-	-
VMFS1P	verb	-	-	plural	first	-	modal	future	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive future tense first person plural	-	-
VMFS1S	verb	-	-	singular	first	-	modal	future	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive future tense first person singular	-	-
VMFS2P	verb	-	-	plural	second	-	modal	future	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive future tense second person plural	-	-
VMFS2S	verb	-	-	singular	second	-	modal	future	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive future tense second person singular	-	-
VMFS3P	verb	-	-	plural	third	-	modal	future	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive future tense third person plural	-	-
VMFS3S	verb	-	-	singular	third	-	modal	future	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive future tense third person singular	-	-
VMGER	verb	-	-	-	-	-	modal	-	gerund	-	-	-	-	-	-	-	-	-	Modal verb. Gerund	-	-
VMII1P	verb	-	-	plural	first	-	modal	imperfect	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative imperfect tense first person plural	-	-
VMII1S	verb	-	-	singular	first	-	modal	imperfect	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative imperfect tense first person singular	-	-
VMII2P	verb	-	-	plural	second	-	modal	imperfect	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative imperfect tense second person plural	-	-
VMII2S	verb	-	-	singular	second	-	modal	imperfect	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative imperfect tense second person singular	-	-
VMII3P	verb	-	-	plural	third	-	modal	imperfect	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative imperfect tense third person plural	-	-
VMII3S	verb	-	-	singular	third	-	modal	imperfect	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative imperfect tense third person singular	-	-
VMINF	verb	-	-	-	-	-	modal	-	infinitive	-	-	-	-	-	-	-	-	-	Modal verb. Infinitive	-	-
VMIS1P	verb	-	-	plural	first	-	modal	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive imperfect tense first person plural	-	-
VMIS1S	verb	-	-	singular	first	-	modal	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive imperfect tense first person singular	-	-
VMIS2P	verb	-	-	plural	second	-	modal	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive imperfect tense second person plural	-	-
VMIS2S	verb	-	-	singular	second	-	modal	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive imperfect tense second person singular	-	-
VMIS3P	verb	-	-	plural	third	-	modal	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive imperfect tense third person plural	-	-
VMIS3S	verb	-	-	singular	third	-	modal	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive imperfect tense third person singular	-	-
VMPI1P	verb	-	-	plural	first	-	modal	present	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative present tense first person plural	-	-
VMPI1S	verb	-	-	singular	first	-	modal	present	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative present tense first person singular	-	-
VMPI2P	verb	-	-	plural	second	-	modal	present	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative present tense second person plural	-	-
VMPI2S	verb	-	-	singular	second	-	modal	present	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative present tense second person singular	-	-
VMPI3P	verb	-	-	plural	third	-	modal	present	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative present tense third person plural	-	-
VMPI3S	verb	-	-	singular	third	-	modal	present	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative present tense third person singular	-	-
VMPM2P	verb	-	-	plural	second	-	modal	-	imperative	-	-	-	-	-	-	-	-	-	Modal verb. Imperative second person plural	-	-
VMPM2S	verb	-	-	singular	second	-	modal	-	imperative	-	-	-	-	-	-	-	-	-	Modal verb. Imperative second person singular	-	-
VMPS1P	verb	-	-	plural	first	-	modal	present	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive present tense first person plural	-	-
VMPS1S	verb	-	-	singular	first	-	modal	present	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive present tense first person singular	-	-
VMPS2P	verb	-	-	plural	second	-	modal	present	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive present tense second person plural	-	-
VMPS2S	verb	-	-	singular	second	-	modal	present	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive present tense second person singular	-	-
VMPS3P	verb	-	-	plural	third	-	modal	present	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive present tense third person plural	-	-
VMPS3S	verb	-	-	singular	third	-	modal	present	subjunctive	-	-	-	-	-	-	-	-	-	Modal verb. Subjunctive present tense third person singular	-	-
VMPX	verb	-	-	-	-	-	modal	-	past-participle	-	-	-	-	-	-	-	-	-	Modal verb. Past participle	-	-
VMXI1P	verb	-	-	plural	first	-	modal	preterite	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative preterite tense first person plural	-	-
VMXI1S	verb	-	-	singular	first	-	modal	preterite	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative preterite tense first person singular	-	-
VMXI2P	verb	-	-	plural	second	-	modal	preterite	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative preterite tense second person plural	-	-
VMXI2S	verb	-	-	singular	second	-	modal	preterite	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative preterite tense second person singular	-	-
VMXI3P	verb	-	-	plural	third	-	modal	preterite	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative preterite tense third person plural	-	-
VMXI3S	verb	-	-	singular	third	-	modal	preterite	indicative	-	-	-	-	-	-	-	-	-	Modal verb. Indicative preterite tense third person singular	-	-
VSCI1P	verb	-	-	plural	first	-	ser	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative conditional tense first person plural	-	-
VSCI1S	verb	-	-	singular	first	-	ser	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative conditional tense first person singular	-	-
VSCI2P	verb	-	-	plural	second	-	ser	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative conditional tense second person plural	-	-
VSCI2S	verb	-	-	singular	second	-	ser	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative conditional tense second person singular	-	-
VSCI3P	verb	-	-	plural	third	-	ser	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative conditional tense third person plural	-	-
VSCI3S	verb	-	-	singular	third	-	ser	conditional	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative conditional tense third person singular	-	-
VSFI1P	verb	-	-	plural	first	-	ser	future	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative future tense first person plural	-	-
VSFI1S	verb	-	-	singular	first	-	ser	future	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative future tense first person singular	-	-
VSFI2P	verb	-	-	plural	second	-	ser	future	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative future tense second person plural	-	-
VSFI2S	verb	-	-	singular	second	-	ser	future	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative future tense second person singular	-	-
VSFI3P	verb	-	-	plural	third	-	ser	future	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative future tense third person plural	-	-
VSFI3S	verb	-	-	singular	third	-	ser	future	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative future tense third person singular	-	-
VSFS1P	verb	-	-	plural	first	-	ser	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive future tense first person plural	-	-
VSFS1S	verb	-	-	singular	first	-	ser	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive future tense first person singular	-	-
VSFS2P	verb	-	-	plural	second	-	ser	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive future tense second person plural	-	-
VSFS2S	verb	-	-	singular	second	-	ser	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive future tense second person singular	-	-
VSFS3P	verb	-	-	plural	third	-	ser	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive future tense third person plural	-	-
VSFS3S	verb	-	-	singular	third	-	ser	future	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive future tense third person singular	-	-
VSGER	verb	-	-	-	-	-	ser	-	gerund	-	-	-	-	-	-	-	-	-	Verb ser. Gerund	-	-
VSII1P	verb	-	-	plural	first	-	ser	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative imperfect tense first person plural	-	-
VSII1S	verb	-	-	singular	first	-	ser	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative imperfect tense first person singular	-	-
VSII2P	verb	-	-	plural	second	-	ser	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative imperfect tense second person plural	-	-
VSII2S	verb	-	-	singular	second	-	ser	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative imperfect tense second person singular	-	-
VSII3P	verb	-	-	plural	third	-	ser	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative imperfect tense third person plural	-	-
VSII3S	verb	-	-	singular	third	-	ser	imperfect	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative imperfect tense third person singular	-	-
VSINF	verb	-	-	-	-	-	ser	-	infinitive	-	-	-	-	-	-	-	-	-	Verb ser. Infinitive	-	-
VSIS1P	verb	-	-	plural	first	-	ser	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive imperfect tense first person plural	-	-
VSIS1S	verb	-	-	singular	first	-	ser	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive imperfect tense first person singular	-	-
VSIS2P	verb	-	-	plural	second	-	ser	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive imperfect tense second person plural	-	-
VSIS2S	verb	-	-	singular	second	-	ser	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive imperfect tense second person singular	-	-
VSIS3P	verb	-	-	plural	third	-	ser	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive imperfect tense third person plural	-	-
VSIS3S	verb	-	-	singular	third	-	ser	imperfect	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive imperfect tense third person singular	-	-
VSPI1P	verb	-	-	plural	first	-	ser	present	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative present tense first person plural	-	-
VSPI1S	verb	-	-	singular	first	-	ser	present	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative present tense first person singular	-	-
VSPI2P	verb	-	-	plural	second	-	ser	present	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative present tense second person plural	-	-
VSPI2S	verb	-	-	singular	second	-	ser	present	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative present tense second person singular	-	-
VSPI3P	verb	-	-	plural	third	-	ser	present	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative present tense third person plural	-	-
VSPI3S	verb	-	-	singular	third	-	ser	present	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative present tense third person singular	-	-
VSPM2P	verb	-	-	plural	second	-	ser	-	imperative	-	-	-	-	-	-	-	-	-	Verb ser. Imperative second person plural	-	-
VSPM2S	verb	-	-	singular	second	-	ser	-	imperative	-	-	-	-	-	-	-	-	-	Verb ser. Imperative second person singular	-	-
VSPS1P	verb	-	-	plural	first	-	ser	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive present tense first person plural	-	-
VSPS1S	verb	-	-	singular	first	-	ser	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive present tense first person singular	-	-
VSPS2P	verb	-	-	plural	second	-	ser	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive present tense second person plural	-	-
VSPS2S	verb	-	-	singular	second	-	ser	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive present tense second person singular	-	-
VSPS3P	verb	-	-	plural	third	-	ser	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive present tense third person plural	-	-
VSPS3S	verb	-	-	singular	third	-	ser	present	subjunctive	-	-	-	-	-	-	-	-	-	Verb ser. Subjunctive present tense third person singular	-	-
VSPX	verb	-	-	-	-	-	ser	-	past-participle	-	-	-	-	-	-	-	-	-	Verb ser. Past participle	-	-
VSXI1P	verb	-	-	plural	first	-	ser	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative preterite tense first person plural	-	-
VSXI1S	verb	-	-	singular	first	-	ser	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative preterite tense first person singular	-	-
VSXI2P	verb	-	-	plural	second	-	ser	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative preterite tense second person plural	-	-
VSXI2S	verb	-	-	singular	second	-	ser	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative preterite tense second person singular	-	-
VSXI3P	verb	-	-	plural	third	-	ser	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative preterite tense third person plural	-	-
VSXI3S	verb	-	-	singular	third	-	ser	preterite	indicative	-	-	-	-	-	-	-	-	-	Verb ser. Indicative preterite tense third person singular	-	-
"""
